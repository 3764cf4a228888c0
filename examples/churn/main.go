// Churn is the failure-domain walkthrough: one live SQ(2) farm driven
// through a crash-and-recovery act — N healthy servers, k of them
// crashed mid-run, then restored — with the measured windowed delay
// checked against the paper's QBD bracket at every phase. The point the
// chaos calibration test (internal/lb/chaos_calibrate_test.go) enforces
// is that the model tracks the failure through the failure: the offered
// load is open-loop, so crashing k of N raises every survivor's
// utilization from ρ to ρ·N/(N−k), and the measured delay must leave
// the (N, ρ) bracket and land in the (N−k, ρ·N/(N−k)) one — then come
// back after the restore.
//
// The same act replays seed-deterministically in the simulator via its
// mirrored churn engine (sim.Options.Churn), printed as the third
// column: model bracket, simulated mean, live windowed mean.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"finitelb"
	"finitelb/internal/lb"
	"finitelb/internal/sim"
	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

const (
	n           = 4
	k           = 2    // servers crashed in act II
	rho         = 0.45 // per-server load while all N are up
	meanService = time.Millisecond
)

// bracket solves the paper's mean-delay bracket for (servers, load),
// walking the truncation threshold up until the upper-bound model is
// stable.
func bracket(servers int, load float64) (lo, hi float64) {
	sys, err := finitelb.NewSystem(servers, 2, load)
	if err != nil {
		log.Fatal(err)
	}
	for t := 3; t <= 5; t++ {
		if b, err := sys.DelayBounds(t); err == nil {
			return b.Lower.MeanDelay, b.Upper.MeanDelay
		}
	}
	log.Fatalf("no stable upper bound by T=5 at ρ=%g", load)
	return 0, 0
}

// simTwin runs the deterministic simulator twin of one phase: the
// degraded phase is "crash k at t=0", which the sim — SQ(d) on the alive
// servers — reproduces as the (N−k, ρ·N/(N−k)) system.
func simTwin(crash bool) float64 {
	var churn *workload.Churn
	if crash {
		churn = &workload.Churn{}
		for i := 0; i < k; i++ {
			churn.Events = append(churn.Events,
				workload.ChurnEvent{Kind: workload.ChurnCrash, T: 0, Server: 2*i + 1})
		}
	}
	res, err := sim.Run(sqd.Params{N: n, D: 2, Rho: rho},
		sim.Options{Jobs: 200_000, Seed: 7, Churn: churn})
	if err != nil {
		log.Fatal(err)
	}
	return res.MeanDelay
}

func main() {
	rhoK := rho * n / float64(n-k)
	loN, hiN := bracket(n, rho)
	loK, hiK := bracket(n-k, rhoK)

	farm, err := lb.New(lb.Config{
		N:           n,
		Policy:      workload.SQD{D: 2},
		MeanService: meanService,
		QueueCap:    1 << 16,
		BatchSize:   50,
		RetryBudget: 5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Open-loop background load: the offered rate is pinned to ρ·N
	// regardless of membership, which is what shifts the survivors'
	// utilization when servers crash.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := farm.RunLoadGen(ctx, lb.GenConfig{Rho: rho, Jobs: 1 << 62, Seed: 23}); err != nil && ctx.Err() == nil {
			log.Print("loadgen: ", err)
		}
	}()

	// window measures the mean delay of just the next span of wall
	// clock, by telescoping two lifetime snapshots.
	window := func(span time.Duration) float64 {
		s1 := farm.Summary()
		time.Sleep(span)
		s2 := farm.Summary()
		jobs := s2.Jobs - s1.Jobs
		if jobs <= 0 {
			log.Fatal("no jobs completed in the window")
		}
		return (s2.MeanDelay*float64(s2.Jobs) - s1.MeanDelay*float64(s1.Jobs)) / float64(jobs)
	}
	phase := func(name string, lo, hi, simMean, live float64) {
		verdict := "IN BRACKET"
		// The live farm carries timer lateness the virtual-time model
		// does not; flag only gross departures.
		if live < 0.5*lo || live > 1.5*hi {
			verdict = "OUT OF BRACKET"
		}
		fmt.Printf("%-28s model [%5.3f, %5.3f]   sim %5.3f   live %5.3f   %s\n",
			name, lo, hi, simMean, live, verdict)
	}

	fmt.Printf("SQ(2) farm, N=%d at ρ=%.2f; crashing k=%d mid-run pushes survivors to ρ=%.2f\n\n", n, rho, k, rhoK)
	time.Sleep(2 * time.Second) // warm up past the initial transient

	phase("act I: all servers up", loN, hiN, simTwin(false), window(3*time.Second))

	for i := 0; i < k; i++ {
		if err := farm.Crash(2*i + 1); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\n  crashed %d of %d (alive: %d); in-flight jobs redelivered to survivors\n\n", k, n, farm.Alive())
	time.Sleep(2 * time.Second) // let the degraded regime establish

	phase("act II: k crashed", loK, hiK, simTwin(true), window(4*time.Second))

	for i := 0; i < k; i++ {
		if err := farm.Join(2*i + 1); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\n  restored (alive: %d)\n\n", farm.Alive())
	time.Sleep(2 * time.Second) // drain the degraded backlog

	phase("act III: recovered", loN, hiN, simTwin(false), window(3*time.Second))

	cancel()
	wg.Wait()
	st, err := farm.Shutdown(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	o := farm.Recorder().Outcomes()
	fmt.Printf("\noutcome ledger: %d completed, %d requeued by churn, %d retries, %d dropped, %d abandoned\n",
		o.Completed, o.Requeued, o.Retried, o.Dropped, st.Abandoned)
}
