package lb

import (
	"context"
	"math"
	"testing"
	"time"

	"finitelb/internal/minindex"
	"finitelb/internal/workload"
)

// TestLoadGenMultiDispatcher fans the generator across several goroutines
// sharing one indexed farm: every offered job must be accounted for
// (completed + rejected = offered) and the measured stream stays sane.
// CI's race job runs this, covering the D-producer dispatch path.
func TestLoadGenMultiDispatcher(t *testing.T) {
	n := minindex.Threshold // indexed JSQ plus fan-in on one table
	farm, err := New(Config{N: n, Policy: workload.JSQ{}, MeanService: 100 * time.Microsecond, QueueCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := farm.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const jobs = 6000
	s, err := farm.RunLoadGen(context.Background(), GenConfig{
		Rho: 0.7, Jobs: jobs, Seed: 5, Dispatchers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed+s.Rejected != jobs {
		t.Errorf("offered %d jobs, completed %d + rejected %d = %d",
			jobs, s.Completed, s.Rejected, s.Completed+s.Rejected)
	}
	if !(s.MeanDelay >= 1) {
		t.Errorf("mean delay %v below one service time", s.MeanDelay)
	}
	if got := farm.lenTree.Min(); got != 0 {
		t.Errorf("drained farm's length index min = %d, want 0", got)
	}
}

// TestLoadGenDispatcherEdgeCases: D capped at Jobs, and invalid D refused.
func TestLoadGenDispatcherEdgeCases(t *testing.T) {
	farm, err := New(Config{N: 2, MeanService: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Shutdown(context.Background())

	if _, err := farm.RunLoadGen(context.Background(), GenConfig{Rho: 0.5, Jobs: 3, Dispatchers: 8}); err != nil {
		t.Errorf("D > Jobs: %v", err)
	}
	if _, err := farm.RunLoadGen(context.Background(), GenConfig{Rho: 0.5, Jobs: 3, Dispatchers: -1}); err == nil {
		t.Error("negative dispatcher count accepted")
	}
}

// TestLoadGenCatchesUpAndConserves runs farms whose offered rate (1µs
// services: millions of arrivals per second) far outstrips one sleep/wake
// per job, so the generator is always behind its timeline and every
// wake-up drains a full catch-up round. Every offered job must be
// accounted for and the run must finish quickly (the point of draining
// overdue arrivals under one clock read). The indexed-LWL row keeps the
// work-aware bookkeeping (pending/outwork ledgers, work index) under that
// traffic: the drained farm's work index must return to all-idle.
func TestLoadGenCatchesUpAndConserves(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		gen  GenConfig
	}{
		{"sqd2", Config{N: 8}, GenConfig{Rho: 0.9, Jobs: 30000, Seed: 3}},
		{"indexed-lwl", Config{N: minindex.Threshold, Policy: workload.LWL{}}, GenConfig{Rho: 0.8, Jobs: 8000, Seed: 17}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.MeanService, tc.cfg.QueueCap = time.Microsecond, 1<<12
			farm, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			s, err := farm.RunLoadGen(context.Background(), tc.gen)
			if err != nil {
				t.Fatal(err)
			}
			if s.Completed+s.Rejected != tc.gen.Jobs {
				t.Errorf("offered %d, completed %d + rejected %d", tc.gen.Jobs, s.Completed, s.Rejected)
			}
			if elapsed := time.Since(start); elapsed > 20*time.Second {
				t.Errorf("run took %v; the generator is not catching up", elapsed)
			}
			if _, err := farm.Shutdown(context.Background()); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if farm.workTree != nil {
				if got := farm.workTree.Min(); got != 0 {
					t.Errorf("drained farm's work index min = %d, want 0", got)
				}
			}
		})
	}
}

// TestInvalidWorkLeaksNothing: an out-of-range requirement is refused
// before any queue reservation or ledger entry is made — a rejection
// after reservation would leak phantom queue occupancy forever.
func TestInvalidWorkLeaksNothing(t *testing.T) {
	farm, err := New(Config{N: 4, Policy: workload.LWL{}, MeanService: 10 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Shutdown(context.Background())

	for _, work := range []float64{-1, 0, math.NaN(), math.Inf(1), 2e9} {
		if err := farm.Dispatch(work); err == nil {
			t.Errorf("Dispatch(%v) accepted", work)
		}
		if _, err := farm.Do(context.Background(), work); err == nil {
			t.Errorf("Do(%v) accepted", work)
		}
	}
	for i := 0; i < farm.n; i++ {
		if l := farm.slots[i].qlen.Load(); l != 0 {
			t.Errorf("server %d: leaked queue reservation (qlen %d)", i, l)
		}
		if p := farm.slots[i].pending.Load(); p != 0 {
			t.Errorf("server %d: leaked pending work %d", i, p)
		}
	}
	if got := farm.accepted.Load(); got != 0 {
		t.Errorf("accepted %d invalid jobs", got)
	}
}

// TestLoadGenJobsAreHedged pins what PR 15's one hand-off decided for the
// generator: its jobs arm Config.Hedge like every other job. Server 0 is
// stalled holding a blocker job, and — server 1 being out of the farm —
// the generated job can only queue behind it; server 1 then rejoins, the
// hedge timer finds the job unclaimed and duplicates it, and the copy
// completes on server 1 while server 0 is still frozen. When the stall
// ends the original finds the claim taken and vanishes: the job is booked
// once, and completed + dropped == accepted.
func TestLoadGenJobsAreHedged(t *testing.T) {
	const stall, hedge = 600 * time.Millisecond, 100 * time.Millisecond
	farm, err := New(Config{N: 2, MeanService: time.Millisecond, Hedge: hedge})
	if err != nil {
		t.Fatal(err)
	}
	if err := farm.Leave(1); err != nil {
		t.Fatal(err)
	}
	frozen := time.Now()
	if err := farm.Stall(0, stall); err != nil {
		t.Fatal(err)
	}
	if err := farm.Dispatch(1); err != nil { // the blocker: claimed by server 0, asleep until the stall ends
		t.Fatal(err)
	}
	type genResult struct {
		s   Summary
		err error
	}
	done := make(chan genResult, 1)
	go func() {
		s, err := farm.RunLoadGen(context.Background(), GenConfig{Rho: 0.5, Jobs: 1, Seed: 9})
		done <- genResult{s, err}
	}()
	for farm.slots[0].qlen.Load() < 2 { // the generated job has queued behind the blocker
		if time.Since(frozen) > stall {
			t.Fatal("the generated job never reached the stalled server")
		}
		time.Sleep(time.Millisecond)
	}
	if err := farm.Join(1); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if elapsed := time.Since(frozen); elapsed >= stall {
		t.Errorf("generated job finished %v after the freeze, not before the %v stall ended: it was not served by the second server", elapsed, stall)
	}
	if o := r.s.Outcomes; o.Completed != 1 || o.Requeued != 1 || o.Retried != 1 || o.Dropped != 0 {
		t.Errorf("ledger when the generator returned: %+v, want the one generated job completed through one hedge copy", o)
	}
	st := mustShutdown(t, farm)
	conserve(t, farm, st)
	if st.Completed != 2 || st.Dropped != 0 {
		t.Errorf("drain stats %+v, want blocker + generated job completed once each", st)
	}
}
