package qbd

import (
	"errors"
	"math"
	"testing"

	"finitelb/internal/markov"
	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
)

func lbModel(n, d int, rho float64, t int) *sqd.LowerBound {
	return &sqd.LowerBound{P: sqd.BoundParams{Params: sqd.Params{N: n, D: d, Rho: rho}, T: t}}
}

func ubModel(n, d int, rho float64, t int) *sqd.UpperBound {
	return &sqd.UpperBound{P: sqd.BoundParams{Params: sqd.Params{N: n, D: d, Rho: rho}, T: t}}
}

func TestBlocksShape(t *testing.T) {
	for _, cfg := range []struct{ n, d, t int }{{3, 2, 2}, {3, 2, 3}, {6, 2, 3}, {4, 3, 2}} {
		b, err := NewBlocks(lbModel(cfg.n, cfg.d, 0.7, cfg.t))
		if err != nil {
			t.Fatalf("N=%d T=%d: %v", cfg.n, cfg.t, err)
		}
		want := int(statespace.BinomialInt(cfg.n+cfg.t-1, cfg.t))
		if b.BlockSize() != want {
			t.Errorf("N=%d T=%d block size = %d, want C(%d,%d) = %d",
				cfg.n, cfg.t, b.BlockSize(), cfg.n+cfg.t-1, cfg.t, want)
		}
	}
}

// TestBlocksConservation: the generator rows must sum to zero across
// (R00|R01) for boundary rows and (A2|A1|A0) for repeating rows — except
// for the upper bound, whose cancelled departures leak outflow on purpose.
func TestBlocksConservation(t *testing.T) {
	b, err := NewBlocks(lbModel(3, 2, 0.8, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Boundary.Len(); i++ {
		sum := 0.0
		for j := 0; j < b.Boundary.Len(); j++ {
			sum += b.R00.At(i, j)
		}
		for j := 0; j < b.BlockSize(); j++ {
			sum += b.R01.At(i, j)
		}
		if math.Abs(sum) > 1e-12 {
			t.Errorf("boundary row %v sums to %v", b.Boundary.At(i), sum)
		}
	}
	rows := b.A0.Add(b.A1).Add(b.A2).RowSums()
	for i, s := range rows {
		if math.Abs(s) > 1e-12 {
			t.Errorf("repeating row %v sums to %v", b.B1[i], s)
		}
	}
}

// TestMM1Reduction: with N=1 the truncated space is the whole M/M/1 chain
// and no redirection ever fires, so LB, improved LB and UB must all give
// exactly the M/M/1 sojourn time 1/(1−ρ).
func TestMM1Reduction(t *testing.T) {
	for _, rho := range []float64{0.2, 0.5, 0.9, 0.99} {
		want := 1 / (1 - rho)
		for _, tc := range []struct {
			name  string
			model BoundModel
			opts  Options
		}{
			{"lower", lbModel(1, 1, rho, 2), Options{}},
			{"improved", lbModel(1, 1, rho, 2), Options{ImprovedLB: true}},
			{"upper", ubModel(1, 1, rho, 2), Options{}},
		} {
			sol, err := Solve(tc.model, tc.opts)
			if err != nil {
				t.Fatalf("%s ρ=%v: %v", tc.name, rho, err)
			}
			if math.Abs(sol.MeanDelay-want) > 1e-8*want {
				t.Errorf("%s ρ=%v: delay = %v, want %v", tc.name, rho, sol.MeanDelay, want)
			}
		}
	}
}

func TestTotalMassIsOne(t *testing.T) {
	for _, tc := range []struct {
		model BoundModel
		opts  Options
	}{
		{lbModel(3, 2, 0.75, 2), Options{}},
		{lbModel(3, 2, 0.75, 2), Options{ImprovedLB: true}},
		{ubModel(3, 2, 0.6, 2), Options{}},
		{lbModel(6, 2, 0.9, 3), Options{}},
		{lbModel(4, 4, 0.85, 2), Options{}},
	} {
		sol, err := Solve(tc.model, tc.opts)
		if err != nil {
			t.Fatalf("%T %+v: %v", tc.model, tc.opts, err)
		}
		mass, err := sol.TotalMass(nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Errorf("%T: total mass = %v, want 1", tc.model, mass)
		}
	}
}

// TestTheorem3GeometricDecay: the lower-bound stationary distribution obeys
// π_{q+1} = ρᴺ·π_q exactly — the paper's Theorem 3 — even when solved with
// the full rate matrix R.
func TestTheorem3GeometricDecay(t *testing.T) {
	for _, cfg := range []struct {
		n, d int
		rho  float64
		tt   int
	}{{3, 2, 0.8, 2}, {3, 3, 0.6, 2}, {4, 2, 0.9, 3}, {2, 2, 0.5, 4}} {
		sol, err := Solve(lbModel(cfg.n, cfg.d, cfg.rho, cfg.tt), Options{})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		ratio := math.Pow(cfg.rho, float64(cfg.n))
		for q := 1; q <= 4; q++ {
			got := sol.LevelMass(q+1) / sol.LevelMass(q)
			if math.Abs(got-ratio) > 1e-8 {
				t.Errorf("%+v: π_%d/π_%d mass ratio = %v, want ρᴺ = %v", cfg, q+1, q, got, ratio)
			}
		}
	}
}

// TestImprovedLBMatchesFull: Theorem 3's scalar shortcut must agree with
// the full matrix-geometric lower bound to solver precision.
func TestImprovedLBMatchesFull(t *testing.T) {
	for _, cfg := range []struct {
		n, d int
		rho  float64
		tt   int
	}{{3, 2, 0.75, 2}, {3, 2, 0.95, 3}, {6, 2, 0.85, 2}, {4, 3, 0.7, 2}} {
		full, err := Solve(lbModel(cfg.n, cfg.d, cfg.rho, cfg.tt), Options{})
		if err != nil {
			t.Fatalf("full %+v: %v", cfg, err)
		}
		imp, err := Solve(lbModel(cfg.n, cfg.d, cfg.rho, cfg.tt), Options{ImprovedLB: true})
		if err != nil {
			t.Fatalf("improved %+v: %v", cfg, err)
		}
		if math.Abs(full.MeanDelay-imp.MeanDelay) > 1e-7*full.MeanDelay {
			t.Errorf("%+v: full LB delay %v ≠ improved LB delay %v", cfg, full.MeanDelay, imp.MeanDelay)
		}
	}
}

func TestImprovedLBRejectsUpperBound(t *testing.T) {
	if _, err := Solve(ubModel(3, 2, 0.5, 2), Options{ImprovedLB: true}); err == nil {
		t.Error("ImprovedLB accepted an upper-bound model")
	}
}

// TestLRIterationCount reproduces the paper's Section IV-A remark that the
// logarithmic reduction needs only a handful of iterations (k ≤ 6 for
// their configurations; we allow a little slack for the very high-ρ runs).
func TestLRIterationCount(t *testing.T) {
	for _, cfg := range []struct {
		n, d int
		rho  float64
		tt   int
	}{{3, 2, 0.75, 2}, {3, 2, 0.95, 3}, {6, 2, 0.9, 3}, {12, 2, 0.75, 3}} {
		sol, err := Solve(lbModel(cfg.n, cfg.d, cfg.rho, cfg.tt), Options{})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if sol.LRIterations > 8 {
			t.Errorf("%+v: logarithmic reduction took %d iterations, expected ≤ 8", cfg, sol.LRIterations)
		}
	}
}

// TestAgainstBruteForce: the matrix-geometric solution must match a direct
// Gauss–Seidel solve of the same model on a deep finite truncation.
func TestAgainstBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model BoundModel
	}{
		{"lower N=3 T=2", lbModel(3, 2, 0.8, 2)},
		{"lower N=3 T=3", lbModel(3, 2, 0.7, 3)},
		{"upper N=3 T=2", ubModel(3, 2, 0.6, 2)},
		{"lower JSQ N=3", lbModel(3, 3, 0.75, 2)},
		{"upper N=4 T=2", ubModel(4, 2, 0.5, 2)},
		{"lower JSQ N=4", lbModel(4, 4, 0.75, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := Solve(tc.model, Options{})
			if err != nil {
				t.Fatal(err)
			}
			p := tc.model.Bound()
			states := statespace.EnumTruncated(p.N, p.T, 220)
			brute, err := markov.SolveTruncated(tc.model, states, 1e-13, 400000)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sol.MeanDelay-brute.MeanDelay) > 1e-6*brute.MeanDelay {
				t.Errorf("matrix-geometric delay %v vs brute force %v", sol.MeanDelay, brute.MeanDelay)
			}
			if math.Abs(sol.MeanJobs-brute.MeanJobs) > 1e-6*brute.MeanJobs {
				t.Errorf("matrix-geometric jobs %v vs brute force %v", sol.MeanJobs, brute.MeanJobs)
			}
		})
	}
}

// TestUpperBoundStability: the wasted service and phantom arrivals shrink
// the stability region; at utilizations near 1 the T=2 upper bound must
// report ErrUnstable, and the drift fields must explain why.
func TestUpperBoundStability(t *testing.T) {
	if _, err := Solve(ubModel(3, 2, 0.97, 2), Options{}); !errors.Is(err, ErrUnstable) {
		t.Errorf("ρ=0.97 T=2: err = %v, want ErrUnstable", err)
	}
	sol, err := Solve(ubModel(3, 2, 0.5, 2), Options{})
	if err != nil {
		t.Fatalf("ρ=0.5 T=2 should be stable: %v", err)
	}
	if !(sol.DriftUp < sol.DriftDown) {
		t.Errorf("stable solution has drift up %v ≥ down %v", sol.DriftUp, sol.DriftDown)
	}
}

// TestLowerBoundStableEverywhere: the jockeying model keeps full service
// capacity, so it must be stable for every ρ < 1.
func TestLowerBoundStableEverywhere(t *testing.T) {
	for _, rho := range []float64{0.5, 0.9, 0.99} {
		if _, err := Solve(lbModel(3, 2, rho, 2), Options{}); err != nil {
			t.Errorf("ρ=%v: %v", rho, err)
		}
	}
}

// TestBoundsSandwichExact: LB ≤ exact ≤ UB on configurations small enough
// for an exact solve, and the UB tightens with T (the paper's
// accuracy-vs-complexity trade-off).
func TestBoundsSandwichExact(t *testing.T) {
	const n, d, rho = 3, 2, 0.8
	exact, err := markov.SolveExact(sqd.Params{N: n, D: d, Rho: rho}, markov.ExactOptions{QueueCap: 30})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Solve(lbModel(n, d, rho, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ub2, err := Solve(ubModel(n, d, rho, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ub3, err := Solve(ubModel(n, d, rho, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(lb.MeanDelay <= exact.MeanDelay+1e-9) {
		t.Errorf("LB %v > exact %v", lb.MeanDelay, exact.MeanDelay)
	}
	if !(ub2.MeanDelay >= exact.MeanDelay-1e-9) {
		t.Errorf("UB(T=2) %v < exact %v", ub2.MeanDelay, exact.MeanDelay)
	}
	if !(ub3.MeanDelay >= exact.MeanDelay-1e-9) {
		t.Errorf("UB(T=3) %v < exact %v", ub3.MeanDelay, exact.MeanDelay)
	}
	if !(ub3.MeanDelay <= ub2.MeanDelay+1e-9) {
		t.Errorf("UB not tighter at T=3: %v vs T=2 %v", ub3.MeanDelay, ub2.MeanDelay)
	}
}
