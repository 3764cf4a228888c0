package lb

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"finitelb/internal/workload"
)

// GenConfig drives the built-in open-loop load generator: arrivals are
// scheduled on an absolute timeline from a workload.Arrival process (so
// pacing error never accumulates into rate drift), each job's service
// requirement is drawn from a workload.Service law, and the offered load
// is Rho × Σspeeds jobs per mean service time — the same parameterisation
// as the simulator and the analytic models, which is what makes the
// resulting Summary directly comparable to both.
type GenConfig struct {
	// Arrival is the interarrival process; default workload.Poisson{}.
	Arrival workload.Arrival
	// Service draws each job's requirement; default workload.Exponential{}.
	Service workload.Service
	// Rho is the per-server utilization, in (0, 1).
	Rho float64
	// Jobs is the number of jobs to offer (required, ≥ 1). Jobs rejected
	// on full queues still count as offered.
	Jobs int64
	// Seed for the generator's arrival and service draws; default 1.
	Seed uint64
	// Dispatchers fans the offered load across this many concurrent
	// generator goroutines sharing the one farm (table, min-index, idle
	// stack): each runs an independent arrival source at rate λ/D with its
	// own rng, the model of several front-end dispatchers feeding one
	// server pool. For Poisson arrivals the superposition is exactly the
	// single-dispatcher process; for other laws it is the natural
	// multi-dispatcher analogue (independent thinned streams), not a
	// sample-path split of one stream. Default 1, which reproduces the
	// single-dispatcher generator draw for draw.
	Dispatchers int
}

// RunLoadGen offers g.Jobs jobs to the farm at the configured load,
// waits for every accepted job to complete, and returns the resulting
// Summary. It blocks the calling goroutine (spawning g.Dispatchers
// workers); ctx cancels early (the partial Summary is still returned).
// The farm stays running — callers own Shutdown.
func (lb *LB) RunLoadGen(ctx context.Context, g GenConfig) (Summary, error) {
	if g.Arrival == nil {
		g.Arrival = workload.Poisson{}
	}
	if g.Service == nil {
		g.Service = workload.Exponential{}
	}
	if g.Jobs < 1 {
		return Summary{}, fmt.Errorf("lb: load generator needs ≥ 1 job, got %d", g.Jobs)
	}
	if !(g.Rho > 0 && g.Rho < 1) {
		return Summary{}, fmt.Errorf("lb: load generator utilization ρ = %v outside (0, 1)", g.Rho)
	}
	if err := g.Service.Validate(); err != nil {
		return Summary{}, err
	}
	if g.Dispatchers < 0 {
		return Summary{}, fmt.Errorf("lb: %d dispatchers, need ≥ 1", g.Dispatchers)
	}
	D := g.Dispatchers
	if D == 0 {
		D = 1
	}
	if int64(D) > g.Jobs {
		D = int(g.Jobs)
	}
	sum := 0.0
	for _, s := range lb.speeds {
		sum += s
	}
	// Validate the arrival configuration once up front; per-dispatcher
	// sources are instantiated inside each worker.
	if _, err := g.Arrival.NewSource(g.Rho * sum / float64(D)); err != nil {
		return Summary{}, err
	}
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}

	// finished counts this generator's own completions, so the drain wait
	// below is immune to concurrent Do/Dispatch traffic on the same farm.
	var finished, accepted atomic.Int64
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for w := 0; w < D; w++ {
		jobs := g.Jobs / int64(D)
		if int64(w) < g.Jobs%int64(D) {
			jobs++
		}
		src, err := g.Arrival.NewSource(g.Rho * sum / float64(D))
		if err != nil {
			return Summary{}, err // unreachable: validated above
		}
		// Worker 0 with D=1 reproduces the historical single-dispatcher
		// stream exactly; further workers decorrelate by the xor.
		rng := rand.New(rand.NewPCG(seed, 0xa0761d6478bd642f^uint64(w)))
		wg.Add(1)
		go func(jobs int64, src workload.Source, rng *rand.Rand) {
			defer wg.Done()
			if err := lb.generate(ctx, g.Service, src, rng, jobs, &finished, &accepted); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(jobs, src, rng)
	}
	wg.Wait()
	if firstErr != nil {
		return lb.Summary(), firstErr
	}

	// Drain: every accepted job completes (service times are finite), so
	// poll completions rather than plumbing a channel per job.
	for finished.Load() < accepted.Load() {
		if ctx.Err() != nil {
			return lb.Summary(), ctx.Err()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return lb.Summary(), ctx.Err()
}

// maxCatchUp bounds how many overdue arrivals one wake-up submits before
// the generator re-reads the clock, so a generator far behind its
// timeline still refreshes its arrival stamps.
const maxCatchUp = 64

// generate is one dispatcher goroutine: an absolute-timeline open loop
// that, on each wake-up, submits every arrival already due (up to
// maxCatchUp) under one clock read. Draws interleave per job: service
// requirement, then the next interarrival gap. A full queue is a counted
// rejection and the loop goes on; any other submit error stops it.
func (lb *LB) generate(ctx context.Context, svc workload.Service, src workload.Source, rng *rand.Rand, jobs int64, finished, accepted *atomic.Int64) error {
	next := time.Now().Add(durationNs(src.Next(rng) * lb.meanServiceNs))
	for k := int64(0); k < jobs; {
		lb.sleep.sleepUntil(next)
		if ctx.Err() != nil {
			return nil
		}
		now := time.Now()
		for b := 0; b < maxCatchUp; b++ {
			work := svc.Sample(rng)
			k++
			next = next.Add(durationNs(src.Next(rng) * lb.meanServiceNs))
			if _, err := lb.submitAt(now, work, nil, finished); err == nil {
				accepted.Add(1)
			} else if !errors.Is(err, ErrQueueFull) {
				return err
			}
			if k == jobs || next.After(now) {
				break
			}
		}
	}
	return nil
}
