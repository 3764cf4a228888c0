package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// boundedPareto draws from a bounded Pareto on [1, h] with shape a via
// inverse-CDF — inlined so the stats tests stay dependency-free.
func boundedPareto(rng *rand.Rand, a, h float64) float64 {
	u := rng.Float64()
	c := 1 - math.Pow(1/h, a)
	return 1 / math.Pow(1-u*c, 1/a)
}

// TestSketchAccuracyOracle is the tentpole's accuracy criterion: on
// exponential, Erlang, and bounded-Pareto streams every reported quantile
// must be within the configured α relative error of the exact quantile of
// the same sample (computed from the fully sorted sample). The bound is
// exact, not statistical: the sketch lands in the bucket containing the
// target rank, and the bucket's relative width is α.
func TestSketchAccuracyOracle(t *testing.T) {
	const n = 200_000
	dists := map[string]func(*rand.Rand) float64{
		"exponential": func(r *rand.Rand) float64 { return r.ExpFloat64() },
		"erlang4": func(r *rand.Rand) float64 {
			return (r.ExpFloat64() + r.ExpFloat64() + r.ExpFloat64() + r.ExpFloat64()) / 4
		},
		"bounded-pareto": func(r *rand.Rand) float64 { return boundedPareto(r, 1.5, 1000) },
	}
	for name, draw := range dists {
		for _, alpha := range []float64{DefaultAlpha, 0.05} {
			sk := NewSketch(alpha, DefaultSketchBudget)
			rng := rand.New(rand.NewPCG(11, 7))
			sample := make([]float64, n)
			for i := range sample {
				x := draw(rng)
				sample[i] = x
				sk.Add(x)
			}
			sort.Float64s(sample)
			for _, q := range []float64{0.50, 0.95, 0.99, 0.999} {
				target := q * float64(n)
				exact := sample[int(math.Ceil(target))-1]
				got := sk.Quantile(q)
				if relErr := math.Abs(got-exact) / exact; relErr > alpha*(1+1e-9) {
					t.Errorf("%s α=%v: q%v = %v, exact %v (rel err %.4f > α)", name, alpha, q, got, exact, relErr)
				}
			}
			if sk.N() != n {
				t.Errorf("%s: N = %d, want %d", name, sk.N(), n)
			}
			if sk.Clamped() {
				t.Errorf("%s: budget collapse triggered on a realistic stream", name)
			}
		}
	}
}

// sketchStatesEqual compares the full logical state of two sketches —
// window bounds, every bucket count, counters, max, clamped — which is
// the "merge equals whole-stream, exactly" criterion.
func sketchStatesEqual(t *testing.T, label string, got, want *Sketch) {
	t.Helper()
	if got.n != want.n || got.zero != want.zero || got.posN != want.posN {
		t.Errorf("%s: counters (n,zero,posN) = (%d,%d,%d), want (%d,%d,%d)",
			label, got.n, got.zero, got.posN, want.n, want.zero, want.posN)
	}
	if got.max != want.max {
		t.Errorf("%s: max %v, want %v", label, got.max, want.max)
	}
	if got.clamped != want.clamped {
		t.Errorf("%s: clamped %v, want %v", label, got.clamped, want.clamped)
	}
	if want.posN == 0 {
		return
	}
	if got.lo != want.lo || got.hi != want.hi {
		t.Fatalf("%s: window [%d,%d], want [%d,%d]", label, got.lo, got.hi, want.lo, want.hi)
	}
	for i := want.lo; i <= want.hi; i++ {
		if g, w := got.counts[i&got.mask], want.counts[i&want.mask]; g != w {
			t.Errorf("%s: bucket %d count %d, want %d", label, i, g, w)
		}
	}
}

// TestSketchMergeEqualsWhole: sharded accumulation merged in any order
// must equal the whole-stream sketch bit for bit — including when the
// bucket budget forces collapsing at different times in different shards.
// The stream spans ~24 decades against a 64-bucket budget, so every shard
// collapses heavily and at different cutoffs.
func TestSketchMergeEqualsWhole(t *testing.T) {
	const budget = 64
	whole := NewSketch(DefaultAlpha, budget)
	shards := make([]*Sketch, 4)
	for i := range shards {
		shards[i] = NewSketch(DefaultAlpha, budget)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 50_000; i++ {
		x := rng.ExpFloat64() * math.Pow(10, float64(i%8)*3)
		whole.Add(x)
		shards[i%3].Add(x) // shard 3 stays empty
	}
	if !whole.Clamped() {
		t.Fatal("test stream did not trigger collapse; widen the range")
	}

	// Forward merge order and reverse merge order must agree with the
	// whole stream and with each other.
	fwd := NewSketch(DefaultAlpha, budget)
	for _, sh := range shards {
		fwd.Merge(sh)
	}
	rev := NewSketch(DefaultAlpha, budget)
	for i := len(shards) - 1; i >= 0; i-- {
		rev.Merge(shards[i])
	}
	sketchStatesEqual(t, "forward-merge vs whole", fwd, whole)
	sketchStatesEqual(t, "reverse-merge vs whole", rev, whole)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if a, b := fwd.Quantile(q), whole.Quantile(q); a != b {
			t.Errorf("merged q%v = %v, whole %v", q, a, b)
		}
	}
	if a, b := fwd.Tail(100), whole.Tail(100); a != b {
		t.Errorf("merged Tail(100) = %v, whole %v", a, b)
	}
}

// TestSketchMergeNoCollapse covers the common case: disjoint-range shards
// whose union stays within budget must merge into exactly the whole-stream
// state with Clamped() still false.
func TestSketchMergeNoCollapse(t *testing.T) {
	whole := NewSketch(DefaultAlpha, DefaultSketchBudget)
	a := NewSketch(DefaultAlpha, DefaultSketchBudget)
	b := NewSketch(DefaultAlpha, DefaultSketchBudget)
	rng := rand.New(rand.NewPCG(8, 1))
	for i := 0; i < 30_000; i++ {
		x := rng.ExpFloat64()
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	sketchStatesEqual(t, "merge vs whole", a, whole)
	if a.Clamped() {
		t.Error("no-collapse merge reported Clamped")
	}
}

// TestSketchExtremeValues: the sketch has no range ceiling — enormous
// observations (beyond what an int conversion holds) must be recorded
// accurately, and sub-resolution values land in the zero
// bucket.
func TestSketchExtremeValues(t *testing.T) {
	sk := NewSketch(DefaultAlpha, DefaultSketchBudget)
	for _, x := range []float64{0, 1e-300, 1, 2, 4.6e18, 1e300} {
		sk.Add(x) // none may panic
	}
	if sk.N() != 6 {
		t.Errorf("N = %d, want 6", sk.N())
	}
	if sk.Max() != 1e300 {
		t.Errorf("Max = %v", sk.Max())
	}
	if got := sk.Tail(0); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("Tail(0) = %v, want 4/6 (zeros excluded)", got)
	}
	// The top observation is resolvable within α even at 1e300.
	if got, want := sk.Quantile(0.999), 1e300; math.Abs(got-want)/want > DefaultAlpha {
		t.Errorf("q0.999 = %v, want within α of %v", got, want)
	}
	// The huge spread forced a collapse of the low buckets (budget 1024
	// covers ~8 decades, the stream spans 300) — reported via Clamped, not
	// silent, and collapsed-region quantiles are upper bounds bracketed by
	// the observations around the cutoff.
	if !sk.Clamped() {
		t.Error("300-decade stream did not report Clamped")
	}
	if got := sk.Quantile(0.70); got < 4.6e18 || got > 1e300 {
		t.Errorf("collapsed-region q0.70 = %v, want an upper bound in [4.6e18, max]", got)
	}

	// Without the pathological spread, int-overflow territory keeps full
	// accuracy: the sketch has no 500-service-time ceiling.
	sk2 := NewSketch(DefaultAlpha, DefaultSketchBudget)
	sk2.Add(1e10)
	sk2.Add(4.6e18)
	if got, want := sk2.Quantile(0.9), 4.6e18; math.Abs(got-want)/want > DefaultAlpha {
		t.Errorf("q0.9 = %v, want within α of %v", got, want)
	}
	if sk2.Clamped() {
		t.Error("8-decade stream reported Clamped")
	}
}

// TestSketchZeroHeavy: a stream of only zeros/sub-resolution values.
func TestSketchZeroHeavy(t *testing.T) {
	sk := NewSketch(DefaultAlpha, 64)
	for i := 0; i < 100; i++ {
		sk.Add(0)
	}
	if got := sk.Quantile(0.5); got != 0 {
		t.Errorf("all-zero q0.5 = %v, want 0", got)
	}
	if got := sk.Tail(5); got != 0 {
		t.Errorf("all-zero Tail(5) = %v, want 0", got)
	}
	sk.Add(10)
	if got := sk.Quantile(0.5); got != 0 {
		t.Errorf("zero-heavy q0.5 = %v, want 0", got)
	}
	if got, want := sk.Quantile(0.999), 10.0; math.Abs(got-want)/want > DefaultAlpha {
		t.Errorf("zero-heavy q0.999 = %v, want ≈10", got)
	}
}

// snapshot deep-copies a sketch the way lb.Recorder.TailSketch does:
// fresh sketch + Merge, which is bit-exact by the mergeability law.
func snapshot(s *Sketch) *Sketch {
	c := NewSketch(s.alpha, len(s.counts))
	c.Merge(s)
	return c
}

// TestSketchDiffQuantileOracle: the quantile of the window between two
// snapshots must match the exact quantile of just the window's
// observations within α — the correctness criterion for cmd/lbd's
// windowed p99 shedding signal, which differences successive TailSketch
// snapshots instead of resetting the lifetime accumulator.
func TestSketchDiffQuantileOracle(t *testing.T) {
	sk := NewSketch(DefaultAlpha, DefaultSketchBudget)
	rng := rand.New(rand.NewPCG(17, 4))
	// Phase 1: a light-load regime.
	for i := 0; i < 50_000; i++ {
		sk.Add(rng.ExpFloat64())
	}
	prev := snapshot(sk)
	// Phase 2: a degraded regime with a 10× heavier tail — the window
	// the shedding signal must see, undiluted by phase 1.
	window := make([]float64, 30_000)
	for i := range window {
		x := 10 * rng.ExpFloat64()
		window[i] = x
		sk.Add(x)
	}
	sort.Float64s(window)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := window[int(math.Ceil(q*float64(len(window))))-1]
		got, ok := sk.DiffQuantile(prev, q)
		if !ok {
			t.Fatalf("q%v: ok = false on a 30k-observation window", q)
		}
		if relErr := math.Abs(got-exact) / exact; relErr > DefaultAlpha*(1+1e-9) {
			t.Errorf("window q%v = %v, exact %v (rel err %.4f > α)", q, got, exact, relErr)
		}
		// The lifetime quantile is diluted by phase 1 and must sit well
		// below the window quantile — differencing is load-bearing.
		if life := sk.Quantile(q); life >= got {
			t.Errorf("q%v: lifetime %v ≥ window %v; expected dilution", q, life, got)
		}
	}
}

// TestSketchDiffQuantileEdges pins the boundary behavior: empty window,
// nil snapshot, zero-only window, and a collapse landing between the
// snapshots.
func TestSketchDiffQuantileEdges(t *testing.T) {
	sk := NewSketch(DefaultAlpha, 64)
	rng := rand.New(rand.NewPCG(5, 12))
	for i := 0; i < 1000; i++ {
		sk.Add(rng.ExpFloat64())
	}

	if _, ok := sk.DiffQuantile(snapshot(sk), 0.99); ok {
		t.Error("empty window reported ok = true")
	}
	if got, ok := sk.DiffQuantile(nil, 0.5); !ok || got != sk.Quantile(0.5) {
		t.Errorf("nil snapshot: (%v, %v), want the lifetime quantile %v", got, ok, sk.Quantile(0.5))
	}

	prev := snapshot(sk)
	sk.Add(0)
	sk.Add(0)
	if got, ok := sk.DiffQuantile(prev, 0.5); !ok || got != 0 {
		t.Errorf("zero-only window q0.5 = (%v, %v), want (0, true)", got, ok)
	}

	// Force a collapse after the snapshot: with budget 64 (~half a decade
	// at α=1%), 1e9-scale observations fold the phase-1 buckets into the
	// cutoff. The window's upper tail must stay α-accurate regardless.
	prev = snapshot(sk)
	window := make([]float64, 5000)
	for i := range window {
		x := 1e9 * rng.ExpFloat64()
		window[i] = x
		sk.Add(x)
	}
	if !sk.Clamped() {
		t.Fatal("collapse did not trigger; widen the scale gap")
	}
	sort.Float64s(window)
	exact := window[int(math.Ceil(0.99*float64(len(window))))-1]
	got, ok := sk.DiffQuantile(prev, 0.99)
	if !ok {
		t.Fatal("post-collapse window reported ok = false")
	}
	if relErr := math.Abs(got-exact) / exact; relErr > DefaultAlpha*(1+1e-9) {
		t.Errorf("post-collapse window q0.99 = %v, exact %v (rel err %.4f > α)", got, exact, relErr)
	}

	// Mismatched configuration panics like Merge.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched DiffQuantile did not panic")
			}
		}()
		sk.DiffQuantile(NewSketch(0.02, 64), 0.5)
	}()
}

// TestSketchPanics pins the validation surface.
func TestSketchPanics(t *testing.T) {
	sk := NewSketch(0.01, 64)
	other := NewSketch(0.02, 64)
	for _, fn := range []func(){
		func() { NewSketch(0, 64) },
		func() { NewSketch(1, 64) },
		func() { NewSketch(0.01, 1) },
		func() { sk.Add(-1) },
		func() { sk.Add(math.NaN()) },
		func() { sk.Quantile(0) },
		func() { sk.Quantile(1) },
		func() { sk.Merge(other) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestSketchAddAllocFree: Add and Merge must not allocate — the property
// the simulator's 0 allocs/event floor and the live recorder's hot path
// inherit (machine-checked structurally by the finitelint hotpath
// analyzer, measured here).
func TestSketchAddAllocFree(t *testing.T) {
	sk := NewSketch(DefaultAlpha, 64)
	other := NewSketch(DefaultAlpha, 64)
	rng := rand.New(rand.NewPCG(2, 9))
	xs := make([]float64, 4096)
	for i := range xs {
		// Wide range so collapses happen inside the measured region too.
		xs[i] = rng.ExpFloat64() * math.Pow(10, float64(i%10)*4)
		other.Add(xs[i])
	}
	i := 0
	if avg := testing.AllocsPerRun(10, func() {
		for j := 0; j < 256; j++ {
			sk.Add(xs[i&4095])
			i++
		}
	}); avg != 0 {
		t.Errorf("Add: %v allocs per 256-observation chunk, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { sk.Merge(other) }); avg != 0 {
		t.Errorf("Merge: %v allocs, want 0", avg)
	}
}

// TestSketchCumulativeBuckets checks the Prometheus exposition view:
// boundaries strictly increase, counts are nondecreasing and exact (the
// final bucket accounts for every observation), and coarsening respects
// the requested cap.
func TestSketchCumulativeBuckets(t *testing.T) {
	sk := NewSketch(DefaultAlpha, DefaultSketchBudget)
	rng := rand.New(rand.NewPCG(6, 6))
	sk.Add(0) // exercise the zero bucket's inclusion in cumulative counts
	for i := 0; i < 10_000; i++ {
		sk.Add(rng.ExpFloat64())
	}
	for _, maxB := range []int{8, 32, 1 << 20} {
		bs := sk.CumulativeBuckets(maxB)
		if len(bs) == 0 || len(bs) > maxB {
			t.Fatalf("max=%d: got %d buckets", maxB, len(bs))
		}
		for i := range bs {
			if i > 0 && (bs[i].LE <= bs[i-1].LE || bs[i].Count < bs[i-1].Count) {
				t.Fatalf("max=%d: bucket %d not monotone: %+v after %+v", maxB, i, bs[i], bs[i-1])
			}
		}
		if last := bs[len(bs)-1]; last.Count != sk.N() {
			t.Errorf("max=%d: final cumulative count %d, want N=%d", maxB, last.Count, sk.N())
		}
		// Cross-check one boundary against Tail: count ≤ LE must equal
		// N − (count > LE).
		mid := bs[len(bs)/2]
		if got := sk.N() - int64(math.Round(sk.Tail(mid.LE)*float64(sk.N()))); got != mid.Count {
			t.Errorf("max=%d: bucket at le=%v count %d, Tail cross-check %d", maxB, mid.LE, mid.Count, got)
		}
	}
	if NewSketch(0.01, 64).CumulativeBuckets(8) != nil {
		t.Error("empty sketch should expose no buckets")
	}
}
