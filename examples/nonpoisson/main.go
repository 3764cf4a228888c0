// Nonpoisson explores the paper's future-work direction: the embedded
// σ-equation of Theorem 2 holds for *any* interarrival law A(t), with
// σ = ρ only in the Poisson case (Theorem 3). Solving it for smoother and
// burstier arrival processes shows how the geometric tail of the
// lower-bound model — and hence queueing delay — responds to arrival
// variability at the same utilization. Every law is a workload spec, the
// same string SimOptions.Arrival takes.
package main

import (
	"fmt"
	"log"

	"finitelb"
	"finitelb/internal/embedded"
	"finitelb/internal/workload"
)

func main() {
	const rho = 0.85 // per-server utilization, service rate 1
	specs := []string{"deterministic", "erlang:4", "erlang:2", "poisson", "hyperexp:cv2=2.8"}

	// σ depends on N only through ρ; N=3 also serves the GI table below.
	sys, err := finitelb.NewSystem(3, 2, rho)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("embedded-chain root σ at utilization ρ = %.2f\n", rho)
	fmt.Printf("(per-block tail ratio of the lower-bound model is σᴺ; GI/M/1 mean delay is 1/(1−σ);\n")
	fmt.Printf("σ = ρ for Poisson, Theorem 3)\n\n")
	fmt.Printf("%-18s %-6s %-10s %-12s %s\n", "interarrival law", "SCV", "σ", "tail σᴺ(N=4)", "GI/M/1 delay")
	for _, spec := range specs {
		sigma, err := sys.Sigma(spec)
		if err != nil {
			log.Fatalf("%s: %v", spec, err)
		}
		tail := sigma * sigma * sigma * sigma
		fmt.Printf("%-18s %-6.3g %-10.6f %-12.6f %.4f\n", spec, scv(spec), sigma, tail, 1/(1-sigma))
	}

	fmt.Println()
	fmt.Println("ordering: smoother arrivals (smaller SCV) ⇒ smaller σ ⇒ lighter tails,")
	fmt.Println("bursty arrivals ⇒ heavier tails — the Poisson assumption in the paper's")
	fmt.Println("models is *not* conservative for bursty traffic, which is exactly why it")
	fmt.Println("flags MAP/PH extensions as significant future work.")

	// Theorem 2 made computational: the embedded-chain lower bound for an
	// actual N=3 SQ(2) system under each phase-type law (all but the
	// deterministic one), at equal utilization.
	fmt.Printf("\nfinite-regime lower bound on mean delay, N=3, SQ(2), ρ=%.2f, T=2:\n", rho)
	for _, spec := range specs[1:] {
		r, err := sys.LowerBoundGI(2, spec, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %.4f\n", spec, r.MeanDelay)
	}
}

// scv returns the interarrival squared coefficient of variation of a
// spec, read off its phase-type form; deterministic arrivals, the one law
// here without such a form, have SCV 0.
func scv(spec string) float64 {
	a, err := workload.ParseArrival(spec)
	if err != nil {
		log.Fatal(err)
	}
	law, err := embedded.LawOf(a, 1)
	if err != nil {
		return 0
	}
	return law.SCV()
}
