package lb

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"finitelb/internal/workload"
)

// fastCfg is a farm whose jobs finish almost instantly (tiny mean
// service), for functional tests where queueing physics is not the point.
func fastCfg(n int, policy workload.Policy) Config {
	return Config{N: n, Policy: policy, MeanService: 50 * time.Microsecond}
}

func mustShutdown(t *testing.T, lb *LB) DrainStats {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := lb.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown: %v (stats %+v)", err, st)
	}
	return st
}

func TestDispatchAndMeasure(t *testing.T) {
	lb, err := New(fastCfg(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	const jobs = 400
	for i := 0; i < jobs; i++ {
		if err := lb.Dispatch(rng.ExpFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	st := mustShutdown(t, lb)
	if st.Completed != jobs || st.Rejected != 0 || st.Abandoned != 0 {
		t.Fatalf("drain stats %+v, want %d completions", st, jobs)
	}
	s := lb.Summary()
	if s.Jobs != jobs || s.Completed != jobs {
		t.Fatalf("summary books %d/%d jobs, want %d", s.Jobs, s.Completed, jobs)
	}
	// Sojourn ≥ service, and with everything dispatched in one burst the
	// mean must exceed one mean service time.
	if s.MeanDelay < 1 {
		t.Errorf("mean live sojourn %v below one mean service", s.MeanDelay)
	}
	if s.MaxQueue < 1 {
		t.Errorf("max queue %d never observed a job", s.MaxQueue)
	}
	if !(s.P999 >= s.P99 && s.P99 >= s.P95 && s.P95 >= s.P50 && s.P50 > 0) {
		t.Errorf("quantiles out of order: p50 %v p95 %v p99 %v p999 %v", s.P50, s.P95, s.P99, s.P999)
	}
	// The Prometheus exposition view: monotone cumulative buckets whose
	// final count books every measured job.
	bs := lb.Recorder().TailBuckets(32)
	if len(bs) == 0 || len(bs) > 32 {
		t.Fatalf("TailBuckets: %d buckets", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i].LE <= bs[i-1].LE || bs[i].Count < bs[i-1].Count {
			t.Fatalf("TailBuckets not monotone at %d: %+v after %+v", i, bs[i], bs[i-1])
		}
	}
	if last := bs[len(bs)-1]; last.Count != int64(jobs) {
		t.Errorf("final cumulative count %d, want %d", last.Count, jobs)
	}
	// The sharded accumulators stay O(KB) per server — the memory bound
	// that restored per-server sharding headroom.
	if got := lb.Recorder().StateBytes(); got > 4*16*1024 {
		t.Errorf("recorder state %d B across 4 shards, want O(KB) each", got)
	}
}

func TestDoWaitsForCompletion(t *testing.T) {
	lb, err := New(Config{N: 1, MeanService: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d, err := lb.Do(context.Background(), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Service != 2*time.Millisecond {
		t.Errorf("nominal service %v, want 2ms", d.Service)
	}
	if d.Sojourn < d.Service {
		t.Errorf("sojourn %v below nominal service %v", d.Sojourn, d.Service)
	}

	// A canceled wait abandons only the wait: the job still completes.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lb.Do(ctx, 1.0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do with canceled ctx: %v", err)
	}
	st := mustShutdown(t, lb)
	if st.Completed != 2 {
		t.Errorf("completed %d jobs, want 2 (canceled wait must not lose the job)", st.Completed)
	}
}

func TestQueueCapRejects(t *testing.T) {
	lb, err := New(Config{N: 1, QueueCap: 2, MeanService: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Three long jobs fill server and queue; the rest must bounce.
	var accepted, rejected int
	for i := 0; i < 8; i++ {
		switch err := lb.Dispatch(5.0); {
		case err == nil:
			accepted++
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if accepted != 2 || rejected != 6 {
		t.Fatalf("accepted %d rejected %d, want 2/6 with QueueCap 2", accepted, rejected)
	}
	st := mustShutdown(t, lb)
	if st.Completed != int64(accepted) || st.Rejected != int64(rejected) {
		t.Fatalf("drain stats %+v disagree with %d accepted / %d rejected", st, accepted, rejected)
	}
}

func TestEveryPolicyServesLive(t *testing.T) {
	for _, pol := range []workload.Policy{
		workload.SQD{D: 2}, workload.JSQ{}, workload.JIQ{}, workload.LWL{},
		workload.RoundRobin{}, workload.Random{},
	} {
		lb, err := New(fastCfg(4, pol))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		rng := rand.New(rand.NewPCG(11, 13))
		for i := 0; i < 200; i++ {
			if err := lb.Dispatch(rng.ExpFloat64()); err != nil {
				t.Fatalf("%s: %v", pol, err)
			}
		}
		if st := mustShutdown(t, lb); st.Completed != 200 {
			t.Fatalf("%s: completed %d of 200", pol, st.Completed)
		}
	}
}

func TestLoadGenOffersConfiguredLoad(t *testing.T) {
	lb, err := New(Config{N: 4, MeanService: 200 * time.Microsecond, Warmup: 50})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 1500
	t0 := time.Now()
	s, err := lb.RunLoadGen(context.Background(), GenConfig{Rho: 0.5, Jobs: jobs, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(t0)
	mustShutdown(t, lb)
	if s.Completed != jobs || s.Jobs != jobs-50 {
		t.Fatalf("completed %d measured %d, want %d/%d", s.Completed, s.Jobs, jobs, jobs-50)
	}
	// Offered rate is ρN per mean service = 10k jobs/s: the run must take
	// roughly jobs/rate. Allow a wide band — this asserts pacing, not
	// precision timing.
	want := time.Duration(float64(jobs) / (0.5 * 4) * 200 * float64(time.Microsecond))
	if elapsed < want/2 || elapsed > 4*want {
		t.Errorf("load generation took %v, want about %v", elapsed, want)
	}
	// The fidelity gauge: services are never rendered early, and the mean
	// completion-observation lateness stays bounded in absolute terms
	// (the work-clock scheduling keeps it from compounding, but a host
	// that can't wake a goroutine within a few ms can't run live tests).
	if s.MeanService < 0.95 {
		t.Errorf("realized mean service %.3f× nominal — services rendered early", s.MeanService)
	}
	if late := time.Duration((s.MeanService - 1) * 200e3); late > 5*time.Millisecond {
		t.Errorf("mean completion lateness %v; host timers too coarse for live measurement", late)
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	lb, err := New(fastCfg(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	mustShutdown(t, lb)
	if err := lb.Dispatch(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("dispatch after shutdown: %v, want ErrClosed", err)
	}
	if _, err := lb.RunLoadGen(context.Background(), GenConfig{Rho: 0.5, Jobs: 10}); !errors.Is(err, ErrClosed) {
		t.Fatalf("loadgen after shutdown: %v, want ErrClosed", err)
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no servers":     {N: 0},
		"bad policy":     {N: 2, Policy: workload.SQD{D: 5}},
		"short speeds":   {N: 3, Speeds: []float64{1, 1}},
		"negative speed": {N: 2, Speeds: []float64{1, -1}},
		"bad queue cap":  {N: 2, QueueCap: -3},
		"bad service":    {N: 2, MeanService: -time.Second},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	lb, err := New(fastCfg(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, lb)
	for _, w := range []float64{0, -1, 2e9} {
		if err := lb.Dispatch(w); err == nil {
			t.Errorf("work %v accepted", w)
		}
	}
}

func TestIdleStack(t *testing.T) {
	st := newIdleStack(8)
	for i := 0; i < 8; i++ {
		st.push(i)
	}
	for want := 7; want >= 0; want-- {
		got, ok := st.tryPop()
		if !ok || got != want {
			t.Fatalf("pop = %d,%v want %d (LIFO)", got, ok, want)
		}
	}
	if _, ok := st.tryPop(); ok {
		t.Fatal("pop from empty stack succeeded")
	}
	// Interleaved reuse keeps ids unique and last-in-first-out.
	st.push(3)
	st.push(5)
	if got, _ := st.tryPop(); got != 5 {
		t.Fatalf("pop = %d, want 5", got)
	}
	if got, _ := st.tryPop(); got != 3 {
		t.Fatalf("pop = %d, want 3", got)
	}
}
