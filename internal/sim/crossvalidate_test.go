package sim

import (
	"testing"

	"finitelb/internal/qbd"
	"finitelb/internal/sqd"
)

// TestSimWithinQBDBounds cross-validates the discrete-event simulator with
// its default workload (Poisson/exponential/SQ(d) — the paper's system)
// against the analytic QBD delay bounds over a small (N, d, ρ, T) grid:
// the simulated mean must land inside [lower, upper] up to simulation
// noise. This is the anchor that keeps the pluggable workload refactor
// honest — any drift in the default event loop lands outside the bracket.
func TestSimWithinQBDBounds(t *testing.T) {
	grid := []struct {
		n, d, tt int
		rho      float64
	}{
		{3, 2, 3, 0.70},
		{3, 2, 4, 0.85},
		{4, 2, 3, 0.75},
		{4, 4, 3, 0.80}, // JSQ corner: d = N
		{5, 3, 3, 0.80},
	}
	jobs := int64(400_000)
	if testing.Short() {
		grid = grid[:2]
		jobs = 150_000
	}
	for _, c := range grid {
		bp := sqd.BoundParams{Params: sqd.Params{N: c.n, D: c.d, Rho: c.rho}, T: c.tt}
		lo, err := qbd.Solve(&sqd.LowerBound{P: bp}, qbd.Options{ImprovedLB: true})
		if err != nil {
			t.Fatalf("N=%d d=%d ρ=%g T=%d: lower bound: %v", c.n, c.d, c.rho, c.tt, err)
		}
		hi, err := qbd.Solve(&sqd.UpperBound{P: bp}, qbd.Options{})
		if err != nil {
			t.Fatalf("N=%d d=%d ρ=%g T=%d: upper bound: %v", c.n, c.d, c.rho, c.tt, err)
		}
		res, err := Run(bp.Params, Options{Jobs: jobs, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		slack := 5 * res.HalfWidth
		if res.MeanDelay < lo.MeanDelay-slack || res.MeanDelay > hi.MeanDelay+slack {
			t.Errorf("N=%d d=%d ρ=%g T=%d: simulated delay %v outside QBD bounds [%v, %v] (CI ±%v)",
				c.n, c.d, c.rho, c.tt, res.MeanDelay, lo.MeanDelay, hi.MeanDelay, res.HalfWidth)
		}
	}
}
