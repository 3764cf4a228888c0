// Finiteregime condenses the paper's Figure 9 story into one table: how
// fast does the asymptotic (N → ∞) power-of-d delay formula become
// trustworthy as the cluster grows, and how badly does it mislead before
// that? For small N the truth comes from the exact solver; the
// finite-regime lower bound certifies the gap independently.
package main

import (
	"fmt"
	"log"

	"finitelb"
)

func main() {
	const (
		d   = 2
		rho = 0.9
		t   = 4
	)
	asy := finitelb.AsymptoticDelay(d, rho)
	fmt.Printf("SQ(%d) at ρ=%.2f — asymptotic mean delay: %.4f (independent of N)\n\n", d, rho, asy)
	fmt.Printf("%-4s %-10s %-10s %-12s %-14s %s\n", "N", "exact", "trunc", "lower bound", "asym error", "")

	// Per-N queue caps keep the exact state space C(cap+N, N) small; the
	// "trunc" column is the mass each cap clips, the exact solve's own
	// error bar.
	for _, cfg := range []struct{ n, cap int }{{2, 80}, {3, 35}, {4, 25}, {6, 14}} {
		n := cfg.n
		sys, err := finitelb.NewSystem(n, d, rho)
		if err != nil {
			log.Fatal(err)
		}
		exact, err := sys.ExactDelay(cfg.cap)
		if err != nil {
			log.Fatal(err)
		}
		lb, err := sys.LowerBound(t)
		if err != nil {
			log.Fatal(err)
		}
		gap := (exact.MeanDelay - asy) / exact.MeanDelay * 100
		note := ""
		if asy < lb.MeanDelay {
			note = "← asymptotic below even the PROVEN lower bound"
		}
		fmt.Printf("%-4d %-10.4f %-10.2g %-12.4f %-14s %s\n",
			n, exact.MeanDelay, exact.TruncationMass, lb.MeanDelay, fmt.Sprintf("%.1f%%", gap), note)
	}

	fmt.Println("\nlarger N (exact solve infeasible): simulation vs asymptotic")
	for _, n := range []int{16, 32, 64} {
		sys, err := finitelb.NewSystem(n, d, rho)
		if err != nil {
			log.Fatal(err)
		}
		simr, err := sys.Simulate(finitelb.SimOptions{Jobs: 1_000_000, Seed: uint64(n)})
		if err != nil {
			log.Fatal(err)
		}
		gap := (simr.MeanDelay - asy) / simr.MeanDelay * 100
		fmt.Printf("N=%-3d  simulated %.4f ± %.4f   asym error %.1f%%\n",
			n, simr.MeanDelay, simr.HalfWidth, gap)
	}
	fmt.Println("\nthe error decays roughly like 1/N: the asymptotic formula is fine for")
	fmt.Println("large fleets and dangerous for small ones — the paper's finite-regime")
	fmt.Println("bounds exist precisely for the left side of this table.")
}
