// Policies compares dispatch policies at equal load through the pluggable
// workload subsystem: the same arrival stream and service law, five
// dispatchers ranging from zero information (uniform random) through the
// paper's SQ(d) to full information (JSQ). Two vignettes:
//
//  1. the information/delay trade-off under the paper's Poisson/exponential
//     workload — where SQ(2) famously buys most of JSQ's benefit with two
//     samples — bracketed by the paper's analytic bounds where they apply;
//  2. the same policies under bursty heavy-tailed traffic
//     (hyperexponential arrivals, bounded-Pareto service), the regime the
//     QBD models cannot reach and the reason the simulator grew plugins.
package main

import (
	"fmt"
	"log"
	"os"

	"finitelb"
	"finitelb/internal/plot"
)

func main() {
	const (
		n    = 10
		d    = 2
		rho  = 0.85
		jobs = 400_000
		seed = 1
	)
	sys, err := finitelb.NewSystem(n, d, rho)
	if err != nil {
		log.Fatal(err)
	}

	policies := []struct{ name, spec string }{
		{"uniform random (SQ(1))", "random"},
		{"round-robin", "rr"},
		{"SQ(2), the paper's", "sqd"},
		{"join-idle-queue", "jiq"},
		{"JSQ (SQ(N))", "jsq"},
	}

	run := func(title, arrival, service string) {
		fmt.Printf("%s — N=%d, ρ=%.2f, %d jobs/policy\n\n", title, n, rho, jobs)
		var rows [][]string
		for _, p := range policies {
			r, err := sys.Simulate(finitelb.SimOptions{
				Jobs: jobs, Seed: seed,
				Arrival: arrival, Service: service, Policy: p.spec,
			})
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, []string{
				p.name,
				fmt.Sprintf("%.4f ± %.4f", r.MeanDelay, r.HalfWidth),
				fmt.Sprintf("%.3f", r.P50),
				fmt.Sprintf("%.3f", r.P99),
				fmt.Sprint(r.MaxQueue),
			})
		}
		if err := plot.Table(os.Stdout, []string{"policy", "mean delay", "p50", "p99", "max queue"}, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	run("dispatch policies, Poisson arrivals / exponential service", "poisson", "exponential")

	// Where the analytic machinery applies (the SQ(d) row above), show the
	// bracket the simulation must and does land in. At this load the
	// upper-bound model needs T=4 to be stable (the accuracy/complexity
	// trade-off of Section V), so walk T up until it is.
	b, t, err := sys.StableBounds(1200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper's QBD bounds for the SQ(%d) row at T=%d: [%.4f, %.4f]; asymptotic (N→∞) %.4f\n\n",
		d, t, b.Lower.MeanDelay, b.Upper.MeanDelay, sys.AsymptoticDelay())

	run("same policies, bursty heavy-tailed workload (H2 arrivals CV²=9, Pareto α=1.5 service)",
		"hyperexp:cv2=9", "pareto:alpha=1.5,h=1000")

	fmt.Println("two readings: (1) two choices buy most of full information at a fraction")
	fmt.Println("of its cost, under both workloads; (2) burstiness multiplies every")
	fmt.Println("policy's delay but punishes the load-blind ones hardest — and only the")
	fmt.Println("simulation rows exist there, since the paper's models assume Poisson/exp.")
}
