// Quickstart: compute finite-regime delay bounds for a power-of-two
// load balancer and compare them with the asymptotic approximation, an
// exact solve, and a simulation — the full toolbox on one screen.
package main

import (
	"errors"
	"fmt"
	"log"

	"finitelb"
)

func main() {
	// A small cluster: 6 servers, power-of-two choices, 85% utilization.
	sys, err := finitelb.NewSystem(6, 2, 0.85)
	if err != nil {
		log.Fatal(err)
	}

	// Finite-regime bounds (threshold T trades tightness for cost).
	bounds, err := sys.DelayBounds(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean delay ∈ [%.4f, %.4f]   (finite-regime bounds, T=4)\n",
		bounds.Lower.MeanDelay, bounds.Upper.MeanDelay)

	// The classical N→∞ approximation — note how far below the lower
	// bound it sits for this small N at high load.
	fmt.Printf("asymptotic   %.4f            (Mitzenmacher, N → ∞)\n", sys.AsymptoticDelay())

	// Ground truth two ways: exact numerical solve and simulation. The
	// exact solve caps each queue at 15 jobs; the truncation mass is the
	// stationary probability on the clipped frontier, so it says how far
	// from exact the cap leaves the number.
	exact, err := sys.ExactDelay(15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact        %.4f            (numerical stationary solve, cap 15, truncation mass %.2g)\n",
		exact.MeanDelay, exact.TruncationMass)

	simr, err := sys.Simulate(finitelb.SimOptions{Jobs: 1_000_000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated    %.4f ± %.4f    (%d jobs)\n", simr.MeanDelay, simr.HalfWidth, simr.Jobs)

	// Tightening the upper bound costs a bigger truncated space; when the
	// modified system loses stability the solver says so instead of lying.
	for t := 1; t <= 5; t++ {
		ub, err := sys.UpperBound(t)
		if errors.Is(err, finitelb.ErrUnstable) {
			fmt.Printf("T=%d: upper-bound model unstable at ρ=0.85 — raise T\n", t)
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("T=%d: upper bound %.4f (block size %d)\n", t, ub.MeanDelay, ub.BlockSize)
	}
}
