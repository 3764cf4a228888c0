package lb

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finitelb/internal/workload"
)

// TestGracefulDrainNeverLosesJobs hammers the farm from concurrent
// submitters while Shutdown races them, and asserts the core drain
// invariant: every job whose Dispatch returned nil is eventually
// completed — never silently dropped — and every other attempt got a
// definite refusal (ErrClosed or ErrQueueFull). Run under -race this also
// exercises the closed-flag/gate/channel-close handshake.
func TestGracefulDrainNeverLosesJobs(t *testing.T) {
	lb, err := New(Config{N: 4, MeanService: 200 * time.Microsecond, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	var accepted, refused atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch err := lb.Dispatch(1.0); {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrClosed), errors.Is(err, ErrQueueFull):
					refused.Add(1)
				default:
					t.Errorf("dispatch: %v", err)
					return
				}
			}
		}()
	}
	// Let the submitters race the shutdown itself.
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := lb.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown: %v (stats %+v)", err, st)
	}
	wg.Wait()

	if got := accepted.Load() + refused.Load(); got != 8*300 {
		t.Fatalf("accounted for %d of %d dispatch attempts", got, 8*300)
	}
	// Shutdown may have returned before the last racing submitters'
	// accounting, so re-read the final counters.
	final := lb.Summary()
	if final.Completed != accepted.Load() {
		t.Errorf("completed %d jobs, accepted %d — jobs lost or invented", final.Completed, accepted.Load())
	}
	if st.Abandoned != 0 {
		t.Errorf("graceful drain abandoned %d jobs", st.Abandoned)
	}
}

// TestDrainDeadlineReportsAbandoned: a drain cut short by its context
// reports the still-queued jobs rather than losing them, and the servers
// finish the work in the background — a later wait observes every job
// completed.
func TestDrainDeadlineReportsAbandoned(t *testing.T) {
	lb, err := New(Config{N: 1, QueueCap: 32, MeanService: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 10 // 10 × 10ms on one server ≈ 100ms of queued work
	for i := 0; i < jobs; i++ {
		if err := lb.Dispatch(1.0); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	st, err := lb.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown before drain could finish: err %v, stats %+v", err, st)
	}
	if st.Abandoned == 0 {
		t.Fatal("deadline-cut drain reported no abandoned jobs")
	}
	if st.Completed+st.Abandoned != jobs {
		t.Errorf("completed %d + abandoned %d ≠ %d dispatched", st.Completed, st.Abandoned, jobs)
	}
	// The background drain must still finish every job.
	st2, err := lb.Shutdown(context.Background())
	if err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if st2.Completed != jobs || st2.Abandoned != 0 {
		t.Errorf("after full drain: %+v, want %d completed", st2, jobs)
	}
}

// TestShutdownIdempotent: repeated and concurrent Shutdown calls all
// succeed and agree.
func TestShutdownIdempotent(t *testing.T) {
	lb, err := New(fastCfg(2, workload.JIQ{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := lb.Dispatch(1.0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := lb.Shutdown(context.Background())
			if err != nil || st.Completed != 50 {
				t.Errorf("concurrent shutdown: %v %+v", err, st)
			}
		}()
	}
	wg.Wait()
}

// TestLoadGenCancellation: canceling the generator's context stops
// offering promptly and still returns a coherent partial summary.
func TestLoadGenCancellation(t *testing.T) {
	lb, err := New(Config{N: 2, MeanService: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	s, err := lb.RunLoadGen(ctx, GenConfig{Rho: 0.5, Jobs: 1_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("loadgen under canceled ctx: %v", err)
	}
	if s.Completed >= 1_000_000 {
		t.Error("cancellation did not stop the generator")
	}
	mustShutdown(t, lb)
}
