package sim

import (
	"math"
	"sort"
	"testing"

	"finitelb/internal/sqd"
	"finitelb/internal/trace"
	"finitelb/internal/workload"
)

// TestTraceOffBitIdentical pins the tentpole guarantee: attaching a
// flight recorder never touches the rng draw sequence, so a traced run
// produces exactly the Result of an untraced one — per wiring, concrete
// and behind the workload-interface adapter.
func TestTraceOffBitIdentical(t *testing.T) {
	p := sqd.Params{N: 12, D: 2, Rho: 0.85}
	for name, opts := range map[string]Options{
		"default":   {Jobs: 6000, Seed: 11},
		"jsq":       {Jobs: 6000, Seed: 11, Policy: workload.JSQ{}},
		"lwl":       {Jobs: 6000, Seed: 11, Policy: workload.LWL{}},
		"interface": {Jobs: 6000, Seed: 11, Arrival: wrappedPoisson{}},
	} {
		plain, err := Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		traced := opts
		traced.Trace = trace.New(trace.Config{Sample: 16, Seed: opts.Seed})
		got, err := Run(p, traced)
		if err != nil {
			t.Fatal(err)
		}
		if got != plain {
			t.Errorf("%s: tracing changed the run:\ntraced  %+v\nuntraced %+v", name, got, plain)
		}
		if traced.Trace.Seen() == 0 || traced.Trace.Published() == 0 {
			t.Errorf("%s: recorder saw %d jobs, published %d spans", name, traced.Trace.Seen(), traced.Trace.Published())
		}
	}
}

// TestTraceSpansFIFOOracle checks the start/complete rank machinery
// against the one case with a closed-form lifecycle: a single FIFO
// server, where job k starts service at max(arrival_k, done_{k−1}) —
// exactly, in the simulator's own floats.
func TestTraceSpansFIFOOracle(t *testing.T) {
	rec := trace.New(trace.Config{Sample: 1, Cap: 4096, Pending: 4096})
	_, err := Run(sqd.Params{N: 1, D: 1, Rho: 0.8},
		Options{Jobs: 1000, Warmup: 1, Seed: 7, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans(-1)
	if len(spans) < 1000 {
		t.Fatalf("recorded %d spans, want ≥ 1000", len(spans))
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	prevDone := math.Inf(-1)
	for i, sp := range spans {
		if sp.Seq != uint64(i) {
			t.Fatalf("span %d has seq %d: sampled set not contiguous at Sample=1", i, sp.Seq)
		}
		want := sp.Arrival
		if prevDone > want {
			want = prevDone
		}
		if sp.Start != want {
			t.Fatalf("job %d: start %v, want max(arrival %v, prev done %v)", i, sp.Start, sp.Arrival, prevDone)
		}
		if !(sp.Done > sp.Start) {
			t.Fatalf("job %d: done %v ≤ start %v", i, sp.Done, sp.Start)
		}
		prevDone = sp.Done
	}
}

// TestTraceSpansReconcile runs the paper's wiring with every job traced
// and checks span well-formedness plus the acceptance property: stage
// durations telescope to the recorded sojourn, and the aggregated stage
// sums decompose the total delay.
func TestTraceSpansReconcile(t *testing.T) {
	const n = 10
	rec := trace.New(trace.Config{Sample: 1, Cap: 8192, Pending: 4096})
	_, err := Run(sqd.Params{N: n, D: 2, Rho: 0.9},
		Options{Jobs: 4000, Warmup: 100, Seed: 3, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans(-1)
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	var sojournSum float64
	for _, sp := range spans {
		if sp.Arrival != sp.Picked || sp.Picked != sp.Enqueued {
			t.Fatalf("sim dispatch is instantaneous in model time, got %+v", sp)
		}
		if sp.Server < 0 || sp.Server >= n {
			t.Fatalf("span server %d outside [0,%d)", sp.Server, n)
		}
		if sp.QLen < 0 {
			t.Fatalf("span qlen %d < 0", sp.QLen)
		}
		if sp.Ties < 1 || sp.Ties > 2 {
			t.Fatalf("SQ(2) tie count %d outside {1,2}", sp.Ties)
		}
		if sp.QLen == 0 && sp.Start != sp.Arrival {
			t.Fatalf("empty-queue job doesn't start at arrival: %+v", sp)
		}
		if sp.QLen > 0 && !(sp.Start > sp.Arrival) {
			t.Fatalf("queued job starts at arrival: %+v", sp)
		}
		wait, svc, sojourn := sp.Start-sp.Enqueued, sp.Done-sp.Start, sp.Done-sp.Arrival
		if d := math.Abs((wait + svc) - sojourn); d > 1e-9*(1+sojourn) {
			t.Fatalf("stages don't reconcile: wait %v + svc %v ≠ sojourn %v", wait, svc, sojourn)
		}
		sojournSum += sojourn
	}
	st := rec.Stages()
	if st.PickSum != 0 {
		t.Errorf("sim pick latency should be 0, got sum %v", st.PickSum)
	}
	// Stage sums cover all completed sampled jobs (a superset of the
	// ring's last-K view when more than Cap completed) — compare per-job
	// means instead of totals.
	ringMean := sojournSum / float64(len(spans))
	stageMean := (st.PickSum + st.WaitSum + st.ServiceSum) / float64(st.N)
	if math.Abs(ringMean-stageMean) > 0.25*ringMean {
		t.Errorf("stage-sum mean %v far from ring span mean %v", stageMean, ringMean)
	}
	if st.Pick.N() != st.N || st.Wait.N() != st.N || st.Service.N() != st.N {
		t.Errorf("stage sketch Ns diverge: %d/%d/%d vs %d", st.Pick.N(), st.Wait.N(), st.Service.N(), st.N)
	}
}

// TestTraceSeedDeterminism: same seed, same sampling rate ⇒ identical
// spans, draw for draw and stamp for stamp.
func TestTraceSeedDeterminism(t *testing.T) {
	run := func() []trace.Span {
		rec := trace.New(trace.Config{Sample: 64, Cap: 4096, Seed: 9})
		_, err := Run(sqd.Params{N: 20, D: 2, Rho: 0.9},
			Options{Jobs: 8000, Seed: 9, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		return rec.Spans(-1)
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("span counts differ or empty: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestAllocFreeEventPathTraced extends the allocation-regression guard
// to trace-on runs: with a recorder attached and sampling 1-in-16, the
// typed event paths must still run allocation-free — the recorder's
// ring, pending pool, and sketches are all preallocated.
func TestAllocFreeEventPathTraced(t *testing.T) {
	for name, opts := range map[string]Options{
		"default":     {Seed: 3},
		"jsq-indexed": {Seed: 3, Policy: workload.JSQ{}},
	} {
		p := sqd.Params{N: 100, D: 2, Rho: 0.9}
		opts.Jobs = 1 << 30 // never reached; chunks drive the stream
		opts.BatchSize = 1 << 40
		opts.setDefaults()
		w, err := resolve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTypedRunner(p, w, 0, newSimStream(opts.BatchSize), opts.Seed)
		rec := trace.New(trace.Config{Sample: 16, Seed: opts.Seed})
		tr.st.tr = newSimTracer(rec, p.N)
		jobs := int64(50_000)
		tr.run(jobs)
		const chunk = 10_000
		avg := testing.AllocsPerRun(5, func() {
			jobs += chunk
			tr.run(jobs)
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per %d-job chunk with tracing on, want 0", name, avg, chunk)
		}
		if rec.Published() == 0 {
			t.Errorf("%s: tracer published no spans", name)
		}
	}
}
