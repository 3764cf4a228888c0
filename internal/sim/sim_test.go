package sim

import (
	"math"
	"testing"

	"finitelb/internal/sqd"
)

func TestRunMM1(t *testing.T) {
	// d=1, N=1: M/M/1 with known mean sojourn 1/(1−ρ).
	for _, rho := range []float64{0.5, 0.8} {
		res, err := Run(sqd.Params{N: 1, D: 1, Rho: rho}, Options{Jobs: 400_000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / (1 - rho)
		if math.Abs(res.MeanDelay-want) > 5*res.HalfWidth+0.02*want {
			t.Errorf("ρ=%v: delay %v, want %v (CI ±%v)", rho, res.MeanDelay, want, res.HalfWidth)
		}
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	if _, err := Run(sqd.Params{N: 2, D: 3, Rho: 0.5}, Options{Jobs: 10}); err == nil {
		t.Error("Run accepted d > N")
	}
}

func TestRunDeterministicSeed(t *testing.T) {
	p := sqd.Params{N: 4, D: 2, Rho: 0.7}
	a, err := Run(p, Options{Jobs: 50_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, Options{Jobs: 50_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanDelay != b.MeanDelay {
		t.Errorf("same seed, different results: %v vs %v", a.MeanDelay, b.MeanDelay)
	}
	c, err := Run(p, Options{Jobs: 50_000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanDelay == c.MeanDelay {
		t.Error("different seeds produced identical trajectories")
	}
}

// TestRunRandomDispatchMatchesMM1: under d = 1 every server is an
// independent M/M/1 queue at load ρ, so the mean sojourn is 1/(1−ρ)
// whatever N is — checked on a two-level and a three-level tracker tree.
func TestRunRandomDispatchMatchesMM1(t *testing.T) {
	const rho = 0.6
	want := 1 / (1 - rho)
	for _, n := range []int{8, 32} {
		r, err := Run(sqd.Params{N: n, D: 1, Rho: rho}, Options{Jobs: 300_000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.MeanDelay-want) > 5*r.HalfWidth+0.02*want {
			t.Errorf("N=%d: delay %v, want %v", n, r.MeanDelay, want)
		}
	}
}

// TestRunMatchesExactSolve: the discrete-event simulator and the CTMC
// stationary solve describe the same system.
func TestRunMatchesExactSolve(t *testing.T) {
	p := sqd.Params{N: 3, D: 2, Rho: 0.75}
	simRes, err := Run(p, Options{Jobs: 600_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Reference value from markov.SolveExact computed in its own tests;
	// recompute here cheaply via the asymptotic-free exact chain is
	// overkill, so assert against a pre-validated constant instead:
	// the exact N=3 SQ(2) ρ=0.75 sojourn is ≈ 2.139 (see markov tests).
	const want = 2.139
	if math.Abs(simRes.MeanDelay-want) > 5*simRes.HalfWidth+0.03*want {
		t.Errorf("sim delay %v, want ≈ %v (CI ±%v)", simRes.MeanDelay, want, simRes.HalfWidth)
	}
}

// TestRunReplicationsDefaultIsSingleStream: R=1 (or unset) must be
// bit-identical to the legacy serial simulator.
func TestRunReplicationsDefaultIsSingleStream(t *testing.T) {
	p := sqd.Params{N: 4, D: 2, Rho: 0.7}
	legacy, err := Run(p, Options{Jobs: 50_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(p, Options{Jobs: 50_000, Seed: 9, Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	if legacy != one {
		t.Errorf("Replications=1 diverges from default:\n%+v\n%+v", one, legacy)
	}
}

// TestRunReplicationsDeterministic: for fixed R the merged result must not
// depend on the worker count or on scheduling.
func TestRunReplicationsDeterministic(t *testing.T) {
	p := sqd.Params{N: 4, D: 2, Rho: 0.7}
	opts := Options{Jobs: 80_000, Seed: 9, Replications: 4}
	a, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 0} {
		o := opts
		o.Workers = w
		b, err := Run(p, o)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("workers=%d: merged result differs:\n%+v\n%+v", w, a, b)
		}
	}
}

// TestRunReplicationsMatchSingleRunMoments: splitting the budget across
// replications is statistically equivalent to one long stream — the pooled
// mean must agree with the single-stream mean within the joint confidence
// intervals, on a system with a known mean (M/M/1).
func TestRunReplicationsMatchSingleRunMoments(t *testing.T) {
	p := sqd.Params{N: 1, D: 1, Rho: 0.7}
	single, err := Run(p, Options{Jobs: 400_000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Run(p, Options{Jobs: 400_000, Seed: 21, Replications: 4})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Jobs != single.Jobs {
		t.Fatalf("merged jobs %d, want %d", merged.Jobs, single.Jobs)
	}
	want := 1 / (1 - p.Rho)
	for name, r := range map[string]Result{"single": single, "merged": merged} {
		if math.Abs(r.MeanDelay-want) > 5*r.HalfWidth+0.02*want {
			t.Errorf("%s: delay %v, want %v (CI ±%v)", name, r.MeanDelay, want, r.HalfWidth)
		}
		if !(r.HalfWidth > 0) {
			t.Errorf("%s: degenerate half-width %v", name, r.HalfWidth)
		}
	}
	if math.Abs(merged.MeanDelay-single.MeanDelay) > 5*(merged.HalfWidth+single.HalfWidth) {
		t.Errorf("merged delay %v too far from single-stream %v", merged.MeanDelay, single.MeanDelay)
	}
	// Quantiles pool through the merged sketch; P50 of M/M/1 sojourn is
	// ln(2)/(1−ρ) ≈ 2.31.
	if wantP50 := math.Ln2 / (1 - p.Rho); math.Abs(merged.P50-wantP50) > 0.05*wantP50 {
		t.Errorf("merged P50 %v, want ≈ %v", merged.P50, wantP50)
	}
}

// TestRunReplicationsUnevenBudget: the job budget must divide across R
// with the remainder spread one job at a time.
func TestRunReplicationsUnevenBudget(t *testing.T) {
	p := sqd.Params{N: 2, D: 1, Rho: 0.5}
	res, err := Run(p, Options{Jobs: 10_003, Seed: 2, Replications: 4, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 10_003 {
		t.Errorf("measured %d jobs, want 10003", res.Jobs)
	}
}
