package embedded

import (
	"math"
	"testing"

	"finitelb/internal/qbd"
	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

func bp(n, d int, rho float64, t int) sqd.BoundParams {
	return sqd.BoundParams{Params: sqd.Params{N: n, D: d, Rho: rho}, T: t}
}

func TestLawConstructors(t *testing.T) {
	for _, c := range []struct {
		a        workload.Arrival
		branches int
		scv      float64
	}{
		{nil, 1, 1},
		{workload.Poisson{}, 1, 1},
		{workload.ErlangArrivals{K: 4}, 1, 0.25},
		{workload.HyperExp{CV2: 4}, 2, 4},
	} {
		law, err := LawOf(c.a, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(law.Branches) != c.branches {
			t.Errorf("%v: %d branches, want %d", c.a, len(law.Branches), c.branches)
		}
		if m := law.Mean(); math.Abs(m-0.5) > 1e-15 {
			t.Errorf("%v: mean = %v, want 0.5", c.a, m)
		}
		if v := law.SCV(); math.Abs(v-c.scv) > 1e-12 {
			t.Errorf("%v: SCV = %v, want %v", c.a, v, c.scv)
		}
	}
	for _, a := range []workload.Arrival{
		workload.DeterministicArrivals{},
		workload.ErlangArrivals{K: 0},
		workload.HyperExp{CV2: 0.5},
	} {
		if _, err := LawOf(a, 2); err == nil {
			t.Errorf("LawOf(%v) accepted", a)
		}
	}
	if _, err := LawOf(workload.Poisson{}, 0); err == nil {
		t.Error("LawOf accepted rate 0")
	}
}

func mustLaw(t *testing.T, a workload.Arrival, rate float64) Law {
	t.Helper()
	l, err := LawOf(a, rate)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewRejectsMismatchedMean(t *testing.T) {
	p := bp(3, 2, 0.8, 2)
	if _, err := New(p, mustLaw(t, workload.Poisson{}, 1.0), 60); err == nil {
		t.Error("law with wrong mean accepted")
	}
	if _, err := New(p, mustLaw(t, workload.Poisson{}, 2.4), 10); err == nil {
		t.Error("too-shallow truncation accepted")
	}
	if _, err := New(p, mustLaw(t, workload.Poisson{}, 2.4), 5000); err == nil {
		t.Error("truncation beyond the state budget accepted")
	}
}

// TestPoissonMatchesCTMC: with exponential interarrivals the embedded
// construction must reproduce the continuous-time lower bound exactly —
// same model, different clockwork.
func TestPoissonMatchesCTMC(t *testing.T) {
	for _, cfg := range []struct {
		n, d int
		rho  float64
		tt   int
		max  int
	}{{3, 2, 0.8, 2, 120}, {3, 3, 0.6, 2, 90}, {2, 2, 0.9, 3, 180}} {
		p := bp(cfg.n, cfg.d, cfg.rho, cfg.tt)
		lamN := p.TotalArrivalRate()
		ch, err := New(p, mustLaw(t, workload.Poisson{}, lamN), cfg.max)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ch.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if fm := ch.FrontierMass(res.Pi); fm > 1e-8 {
			t.Fatalf("%+v: frontier mass %v too large", cfg, fm)
		}
		ctmc, err := qbd.Solve(&sqd.LowerBound{P: p}, qbd.Options{ImprovedLB: true})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.MeanDelay-ctmc.MeanDelay) / ctmc.MeanDelay; rel > 1e-6 {
			t.Errorf("%+v: embedded %v vs CTMC %v (%.2g rel)", cfg, res.MeanDelay, ctmc.MeanDelay, rel)
		}
	}
}

// TestTheorem2SigmaTail: the embedded stationary distribution's block tail
// ratio must equal σᴺ with σ the root of x = Σ xᵏβ_k — Theorem 2, for
// non-Poisson renewal arrivals. The chain's β_k use the aggregate service
// rate N (all servers busy beyond the boundary) against arrivals at ρN,
// which is Sigma's per-server root at ρ.
func TestTheorem2SigmaTail(t *testing.T) {
	const n, d, rho, tt = 3, 2, 0.8, 2
	p := bp(n, d, rho, tt)
	lamN := p.TotalArrivalRate()
	for name, a := range map[string]workload.Arrival{
		"erlang2":  workload.ErlangArrivals{K: 2},
		"hyperexp": workload.HyperExp{CV2: 2},
		"poisson":  workload.Poisson{},
	} {
		t.Run(name, func(t *testing.T) {
			ch, err := New(p, mustLaw(t, a, lamN), 120)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ch.Solve()
			if err != nil {
				t.Fatal(err)
			}
			sigma, err := Sigma(a, rho)
			if err != nil {
				t.Fatal(err)
			}
			want := math.Pow(sigma, float64(n))
			// Interior blocks: away from boundary and truncation.
			for q := 3; q <= 6; q++ {
				got := ch.BlockMass(res.Pi, q+1) / ch.BlockMass(res.Pi, q)
				if math.Abs(got-want) > 1e-6 {
					t.Errorf("block ratio π_%d/π_%d = %.9f, want σᴺ = %.9f", q+1, q, got, want)
				}
			}
		})
	}
}

// TestVariabilityOrdering: at equal utilization, smoother arrivals yield
// smaller lower-bound delay; burstier arrivals larger — the GI extension's
// headline consequence.
func TestVariabilityOrdering(t *testing.T) {
	p := bp(3, 2, 0.8, 2)
	lamN := p.TotalArrivalRate()
	delay := func(a workload.Arrival) float64 {
		ch, err := New(p, mustLaw(t, a, lamN), 100)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ch.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanDelay
	}
	erl := delay(workload.ErlangArrivals{K: 4})
	poi := delay(workload.Poisson{})
	hyp := delay(workload.HyperExp{CV2: 2})
	if !(erl < poi && poi < hyp) {
		t.Errorf("ordering violated: Erlang4 %v, Poisson %v, HyperExp %v", erl, poi, hyp)
	}
}
