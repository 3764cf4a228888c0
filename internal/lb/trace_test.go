package lb

import (
	"context"
	"math"
	"testing"
	"time"

	"finitelb/internal/trace"
)

// TestLiveTraceSpansReconcile drives a traced farm and checks the
// acceptance property on the live side: spans are well-formed, their
// stage durations telescope exactly to the recorded sojourn, and the
// stage sketches carry one observation per completed sampled job.
func TestLiveTraceSpansReconcile(t *testing.T) {
	const n, jobs = 4, 300
	// Long enough that a shared host's sleep overshoot (hundreds of µs)
	// stays a fraction of a service time: the realized-service check
	// below is about units, not about the scheduler.
	mean := 2 * time.Millisecond
	rec := trace.New(trace.Config{
		Sample: 1, Cap: 1024, Pending: 1024,
		Scale: float64(mean.Nanoseconds()),
	})
	farm, err := New(Config{N: n, MeanService: mean, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		if err := farm.Dispatch(1); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := farm.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	spans := rec.Spans(-1)
	if len(spans) != jobs {
		t.Fatalf("recorded %d spans, want %d at Sample=1", len(spans), jobs)
	}
	for _, sp := range spans {
		if sp.Server < 0 || sp.Server >= n {
			t.Fatalf("span server %d outside [0,%d)", sp.Server, n)
		}
		if sp.QLen < 0 {
			t.Fatalf("span qlen %d < 0", sp.QLen)
		}
		if sp.Ties != -1 {
			t.Fatalf("live pickers don't report ties, got %d", sp.Ties)
		}
		// The dispatch pipeline is ordered in wall time; only the
		// work-clock Start may run ahead of the Enqueued observation.
		if !(sp.Arrival <= sp.Picked && sp.Picked <= sp.Enqueued) {
			t.Fatalf("dispatch stamps out of order: %+v", sp)
		}
		if sp.Start < sp.Arrival {
			t.Fatalf("start %v before arrival %v", sp.Start, sp.Arrival)
		}
		if !(sp.Done > sp.Start) {
			t.Fatalf("done %v ≤ start %v", sp.Done, sp.Start)
		}
		sum := (sp.Picked - sp.Arrival) + (sp.Enqueued - sp.Picked) +
			(sp.Start - sp.Enqueued) + (sp.Done - sp.Start)
		sojourn := sp.Done - sp.Arrival
		if d := math.Abs(sum - sojourn); d > 1e-6*(1+math.Abs(sojourn)) {
			t.Fatalf("stage sums %v don't reconcile with sojourn %v", sum, sojourn)
		}
	}
	st := rec.Stages()
	if st.N != jobs {
		t.Fatalf("stage observations %d, want %d", st.N, jobs)
	}
	// Unit work at Scale = MeanService ⇒ realized service ≈ 1 in
	// service-time units (the sleeper's jitter rides on top).
	if svcMean := st.ServiceSum / float64(st.N); svcMean < 0.5 || svcMean > 3 {
		t.Fatalf("mean realized service %v service times, want ≈ 1", svcMean)
	}
}

// TestLiveTraceRejectsAbort: jobs refused on a full queue must release
// their pending spans as aborted, never publish them.
func TestLiveTraceRejectsAbort(t *testing.T) {
	mean := 5 * time.Millisecond
	rec := trace.New(trace.Config{Sample: 1, Scale: float64(mean.Nanoseconds())})
	farm, err := New(Config{N: 1, QueueCap: 1, MeanService: mean, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i := 0; i < 50; i++ {
		if err := farm.Dispatch(1); err == ErrQueueFull {
			rejected++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := farm.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if rejected == 0 {
		t.Fatal("flooding a QueueCap=1 farm rejected nothing")
	}
	if got := rec.Aborted(); got != uint64(rejected) {
		t.Fatalf("recorder aborted %d, farm rejected %d", got, rejected)
	}
	if pub := int(rec.Published()); pub != 50-rejected {
		t.Fatalf("published %d spans, want %d accepted jobs", pub, 50-rejected)
	}
}

// TestLiveTraceOffUnchanged: with no recorder attached the job structs
// carry trace.None and the farm behaves identically (smoke-level check
// that the nil path is really inert).
func TestLiveTraceOffUnchanged(t *testing.T) {
	farm, err := New(Config{N: 2, MeanService: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if farm.Trace() != nil {
		t.Fatal("recorder attached without Config.Trace")
	}
	for i := 0; i < 20; i++ {
		if err := farm.Dispatch(1); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := farm.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 20 {
		t.Fatalf("completed %d of 20", st.Completed)
	}
}
