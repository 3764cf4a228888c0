package lb

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"finitelb/internal/chaos"
	"finitelb/internal/workload"
)

// conserve asserts the failure-domain ledger: every accepted job either
// completed or was dropped with a count, and the drain abandoned none.
func conserve(t *testing.T, lb *LB, st DrainStats) {
	t.Helper()
	accepted := lb.accepted.Load()
	if st.Completed+st.Dropped != accepted || st.Abandoned != 0 {
		t.Errorf("conservation broken: accepted %d, completed %d, dropped %d, abandoned %d",
			accepted, st.Completed, st.Dropped, st.Abandoned)
	}
	o := lb.Recorder().Outcomes()
	if o.Completed != st.Completed || o.Dropped != st.Dropped {
		t.Errorf("outcome counters disagree with drain stats: %+v vs %+v", o, st)
	}
}

func TestLeaveDrainsAndJoinRestores(t *testing.T) {
	cfg := fastCfg(4, nil)
	cfg.MeanService = 200 * time.Microsecond // ≈10ms backlog/server: the leave lands mid-drain
	lb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var counted atomic.Int64
	const jobs = 200
	for i := 0; i < jobs; i++ {
		if _, err := lb.submit(1, nil, &counted); err != nil {
			t.Fatal(err)
		}
	}
	if err := lb.Leave(2); err != nil {
		t.Fatal(err)
	}
	if got := lb.Alive(); got != 3 {
		t.Fatalf("Alive() = %d after one leave of four, want 3", got)
	}
	if err := lb.Leave(2); err == nil {
		t.Error("double-leave accepted")
	}
	// The departed server's queue requeues; everything still completes.
	deadline := time.Now().Add(10 * time.Second)
	for counted.Load() < jobs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs finished after a graceful leave", counted.Load(), jobs)
		}
		time.Sleep(time.Millisecond)
	}
	if err := lb.Join(2); err != nil {
		t.Fatal(err)
	}
	if err := lb.Join(2); err == nil {
		t.Error("double-join accepted")
	}
	if got := lb.Alive(); got != 4 {
		t.Fatalf("Alive() = %d after restore, want 4", got)
	}
	// Routing works on the restored farm.
	for i := 0; i < 50; i++ {
		if err := lb.Dispatch(1); err != nil {
			t.Fatal(err)
		}
	}
	st := mustShutdown(t, lb)
	conserve(t, lb, st)
	if st.Dropped != 0 {
		t.Errorf("%d drops on a graceful leave with default budget", st.Dropped)
	}
	if o := lb.Recorder().Outcomes(); o.Requeued == 0 {
		t.Error("a leave with a backlog requeued nothing")
	}
}

func TestCrashInterruptsAndRedelivers(t *testing.T) {
	cfg := fastCfg(2, nil)
	cfg.MeanService = time.Millisecond
	lb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One long job (≈300ms) lands on one of the two idle servers.
	var counted atomic.Int64
	if _, err := lb.submit(300, nil, &counted); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let it enter service
	busy := 0
	if lb.QueueLens()[1] > 0 {
		busy = 1
	}
	if err := lb.Crash(busy); err != nil {
		t.Fatal(err)
	}
	// The interrupt lands within ~crashPoll and the job redelivers to
	// the surviving server, where it re-executes in full.
	deadline := time.Now().Add(10 * time.Second)
	for counted.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("crashed job never redelivered")
		}
		time.Sleep(time.Millisecond)
	}
	o := lb.Recorder().Outcomes()
	if o.Requeued < 1 || o.Retried < 1 {
		t.Errorf("outcomes after crash: %+v, want ≥1 requeued and retried", o)
	}
	if err := lb.Crash(1 - busy); err == nil {
		t.Error("crashing the last live server accepted")
	}
	st := mustShutdown(t, lb)
	conserve(t, lb, st)
	if st.Completed != 1 || st.Dropped != 0 {
		t.Errorf("drain stats %+v, want the one job completed", st)
	}
}

func TestRetryBudgetExhaustionDrops(t *testing.T) {
	cfg := fastCfg(2, nil)
	cfg.RetryBudget = -1 // no redelivery: orphaned jobs drop immediately
	lb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Done, 1)
	if _, err := lb.submit(2000, ch, nil); err != nil { // ≈100ms at 50µs
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	busy := 0
	if lb.QueueLens()[1] > 0 {
		busy = 1
	}
	if err := lb.Crash(busy); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-ch:
		if !d.Dropped || d.Server != -1 {
			t.Errorf("done = %+v, want a drop report", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("budget-exhausted job neither completed nor dropped")
	}
	st := mustShutdown(t, lb)
	conserve(t, lb, st)
	if st.Dropped != 1 {
		t.Errorf("drain stats %+v, want exactly one drop", st)
	}
}

func TestDeadlineDropsQueuedJob(t *testing.T) {
	cfg := fastCfg(1, nil)
	cfg.MeanService = time.Millisecond
	cfg.Deadline = 10 * time.Millisecond
	lb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 100ms job holds the lone server; the next job's service would
	// start far past its 10ms deadline, so it drops instead of serving.
	if err := lb.Dispatch(100); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d, err := lb.Do(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Dropped {
		t.Errorf("done = %+v, want deadline drop", d)
	}
	st := mustShutdown(t, lb)
	conserve(t, lb, st)
	if st.Completed != 1 || st.Dropped != 1 {
		t.Errorf("drain stats %+v, want 1 completion + 1 drop", st)
	}
}

func TestHedgeResolvesToOneCompletion(t *testing.T) {
	cfg := fastCfg(2, nil)
	cfg.MeanService = time.Millisecond
	cfg.Hedge = 5 * time.Millisecond
	lb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy both servers (~80ms each), then hedge a short job: both the
	// original and the duplicate queue behind a long job, exactly one
	// copy wins the claim and completes, the loser vanishes uncounted.
	for i := 0; i < 2; i++ {
		if err := lb.Dispatch(80); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d, err := lb.Do(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dropped {
		t.Errorf("hedged job dropped: %+v", d)
	}
	st := mustShutdown(t, lb)
	conserve(t, lb, st)
	if st.Completed != 3 {
		t.Errorf("drain stats %+v, want exactly 3 completions (no double-count)", st)
	}
}

func TestPauseDispatchGates(t *testing.T) {
	lb, err := New(fastCfg(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	lb.PauseDispatch()
	released := make(chan error, 1)
	go func() {
		err := lb.Dispatch(1)
		released <- err
	}()
	select {
	case err := <-released:
		t.Fatalf("dispatch returned %v while paused", err)
	case <-time.After(50 * time.Millisecond):
	}
	lb.ResumeDispatch()
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("dispatch after resume: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch never released after resume")
	}
	// Shutdown releases a paused dispatcher with ErrClosed.
	lb.PauseDispatch()
	go func() {
		released <- lb.Dispatch(1)
	}()
	time.Sleep(20 * time.Millisecond)
	st := mustShutdown(t, lb)
	select {
	case err := <-released:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("paused dispatch at shutdown returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("paused dispatch never released by shutdown")
	}
	conserve(t, lb, st)
}

func TestSlowFactorStretchesService(t *testing.T) {
	cfg := fastCfg(1, nil)
	cfg.MeanService = time.Millisecond
	lb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.SetSlow(0, 20); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	if _, err := lb.Do(ctx, 1); err != nil { // nominal 1ms, degraded 20×
		t.Fatal(err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("slowed 1ms job finished in %v, want ≳20ms", el)
	}
	if err := lb.SetSlow(0, 1); err != nil { // clear
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := lb.Do(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 15*time.Millisecond {
		t.Errorf("restored 1ms job took %v, degradation did not clear", el)
	}
	conserve(t, lb, mustShutdown(t, lb))
}

func TestRunChurnReplaysResolvedSchedule(t *testing.T) {
	cfg := fastCfg(3, nil)
	cfg.MeanService = time.Millisecond
	lb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ParseChurn("churn:crash@t=5,restore@t=30")
	if err != nil {
		t.Fatal(err)
	}
	events, err := chaos.Resolve(spec, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	mid := make(chan int, 1)
	go func() {
		// Sample liveness between the two events (t=5..30 ⇒ 5..30ms).
		time.Sleep(17 * time.Millisecond)
		mid <- lb.Alive()
	}()
	if err := lb.RunChurn(events); err != nil {
		t.Fatal(err)
	}
	if a := <-mid; a != 2 {
		t.Errorf("Alive() = %d between crash and restore, want 2", a)
	}
	if a := lb.Alive(); a != 3 {
		t.Errorf("Alive() = %d after the schedule, want 3", a)
	}
	// Unresolved events are a caller error.
	if err := lb.RunChurn([]workload.ChurnEvent{{Kind: workload.ChurnCrash, T: 0, Server: -1}}); err == nil {
		t.Error("RunChurn accepted an unresolved event")
	}
	conserve(t, lb, mustShutdown(t, lb))
}
