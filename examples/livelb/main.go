// Livelb is the "from model to machine" walkthrough: one SQ(2) system
// evaluated three ways — the paper's analytic QBD delay bracket, the
// discrete-event simulator, and the live internal/lb runtime serving real
// wall-clock traffic on goroutine servers — all reporting in the same
// unit, multiples of the mean service time. The punchline the repository
// tests enforce (internal/lb/calibrate_test.go): all three agree, so
// Theorem-level finite-N guarantees hold for a running concurrent system,
// not just for its Markov model.
//
// The live row carries two caveats the output makes visible: it measures
// far fewer jobs than the simulator (wall-clock seconds instead of CPU
// minutes, so the confidence interval is wider), and its "realized
// service" gauge reports how faithfully the host's timers rendered the
// requested service times — on a noisy machine the live mean drifts up by
// roughly the completion-observation lateness the gauge shows.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"finitelb"
	"finitelb/internal/lb"
	"finitelb/internal/plot"
	"finitelb/internal/workload"
)

func main() {
	const (
		n           = 10
		d           = 2
		rho         = 0.85
		liveJobs    = 12_000
		simJobs     = 400_000
		meanService = 2 * time.Millisecond
	)

	sys, err := finitelb.NewSystem(n, d, rho)
	if err != nil {
		log.Fatal(err)
	}

	// Model: the finite-N bracket (walking T up to the first threshold
	// where the upper-bound model is stable at this load).
	var bounds finitelb.Bounds
	boundsT := 0
	for t := 3; t <= 5; t++ {
		if b, err := sys.DelayBounds(t); err == nil {
			bounds, boundsT = b, t
			break
		}
	}
	if boundsT == 0 {
		log.Fatalf("no stable upper bound by T=5 at ρ=%g", rho)
	}

	// Simulation: the same system in virtual time.
	simRes, err := sys.Simulate(finitelb.SimOptions{Jobs: simJobs, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Machine: goroutine servers, atomic dispatch tables, real elapsed
	// time. One unit of work is rendered as 2ms of wall clock.
	farm, err := lb.New(lb.Config{
		N:           n,
		MeanService: meanService,
		Warmup:      liveJobs / 10,
		BatchSize:   liveJobs / (20 * n),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("driving the live farm: %d jobs at ρ=%g across %d servers (~%.0fs of wall clock)...\n\n",
		liveJobs, rho, n, float64(liveJobs)/(rho*n)*meanService.Seconds())
	live, err := farm.RunLoadGen(context.Background(), lb.GenConfig{Rho: rho, Jobs: liveJobs, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := farm.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("SQ(%d), N=%d, ρ=%.2f — mean sojourn in service times, three ways:\n\n", d, n, rho)
	rows := [][]string{
		{"QBD lower bound (Thm 3)", fmt.Sprintf("%.4f", bounds.Lower.MeanDelay), fmt.Sprintf("T=%d", boundsT), "analytic"},
		{"discrete-event simulation", fmt.Sprintf("%.4f ± %.4f", simRes.MeanDelay, simRes.HalfWidth), fmt.Sprintf("%d jobs", simRes.Jobs), "virtual time"},
		{"live runtime (internal/lb)", fmt.Sprintf("%.4f ± %.4f", live.MeanDelay, live.HalfWidth), fmt.Sprintf("%d jobs", live.Jobs), "wall clock"},
		{"QBD upper bound (Thm 1)", fmt.Sprintf("%.4f", bounds.Upper.MeanDelay), fmt.Sprintf("T=%d", boundsT), "analytic"},
		{"asymptotic (N→∞)", fmt.Sprintf("%.4f", sys.AsymptoticDelay()), "", "Eq. (16)"},
	}
	if err := plot.Table(os.Stdout, []string{"estimate", "mean delay", "evidence", "kind"}, rows); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nlive p50/p95/p99: %.3f / %.3f / %.3f; max queue %d; realized service %.3f× nominal\n",
		live.P50, live.P95, live.P99, live.MaxQueue, live.MeanService)
	fmt.Println("\nreading: the live measurement lands inside the analytic bracket —")
	fmt.Println("the paper's finite-regime bounds, computed from a Markov model, hold")
	fmt.Println("for an actual concurrent dispatcher under real traffic. The asymptotic")
	fmt.Println("line under-predicts all of them, which is the paper's warning about")
	fmt.Println("trusting N→∞ formulas at finite N.")

	// Act two: dispatch at scale. JSQ needs a global argmin, which an
	// O(N) scan renders unaffordable exactly where the finite-N-versus-
	// asymptote question gets interesting (large farms): ~9–12µs per pick
	// at N=1000 caps dispatch near 80k jobs/sec. At N ≥ 64 the runtime
	// routes JSQ through a hierarchical min-index (internal/minindex), so
	// the same experiment runs at N=2000 with several dispatcher
	// goroutines sharing one farm, each submitting every overdue arrival
	// per wake-up.
	const (
		bigN    = 2000
		bigJobs = 40_000
		bigRho  = 0.8
		bigMean = 20 * time.Millisecond // 80k offered jobs/sec aggregate
	)
	// BatchSize is small because measurements spread across 2000 per-server
	// shards — ~18 measured jobs each — and the batch-means CI needs a few
	// batches per shard to be finite.
	// QueueCap stays modest: 2000 servers × the default 4096-slot channels
	// would allocate ~half a GB of buffer backing for queues that JSQ at
	// ρ=0.8 keeps 1-2 deep.
	bigFarm, err := lb.New(lb.Config{N: bigN, Policy: workload.JSQ{}, MeanService: bigMean, Warmup: bigJobs / 10, BatchSize: 5, QueueCap: 256})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndispatch at scale: JSQ over N=%d servers, %d jobs at ρ=%g (%.0fk offered jobs/sec), 4 dispatchers...\n",
		bigN, bigJobs, bigRho, bigRho*bigN/bigMean.Seconds()/1e3)
	t0 := time.Now()
	big, err := bigFarm.RunLoadGen(context.Background(), lb.GenConfig{
		Rho: bigRho, Jobs: bigJobs, Seed: 7, Dispatchers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0)
	if _, err := bigFarm.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dispatched %d jobs in %v (%.0fk jobs/sec through one indexed table);\n",
		big.Completed, elapsed.Round(time.Millisecond), float64(big.Completed)/elapsed.Seconds()/1e3)
	fmt.Printf("mean delay %.3f ± %.3f service times — a pick rate no O(N) scan could sustain.\n",
		big.MeanDelay, big.HalfWidth)
}
