package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

// shardedStreams feeds one exponential stream to a whole-stream
// accumulator and, alternating whole batches so both slicings complete the
// same batch set, to two shards; it returns the whole stream and the
// merged shards.
func shardedStreams() (whole, merged *Stream) {
	const batch = 50
	whole = NewSketchStream(batch, DefaultAlpha, DefaultSketchBudget)
	a := NewSketchStream(batch, DefaultAlpha, DefaultSketchBudget)
	b := NewSketchStream(batch, DefaultAlpha, DefaultSketchBudget)
	rng := rand.New(rand.NewPCG(5, 9))
	for i := 0; i < 40*batch; i++ {
		x := rng.ExpFloat64()
		whole.Add(x)
		if (i/batch)%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.ObserveQueue(3)
	b.ObserveQueue(7)
	a.Merge(b)
	return whole, a
}

// TestStreamMergeMatchesSingleStream: merging shard streams must pool
// moments, batch means (shards complete whole batches) and the queue
// maximum as one stream seeing all observations would.
func TestStreamMergeMatchesSingleStream(t *testing.T) {
	whole, a := shardedStreams()
	if a.N() != whole.N() {
		t.Fatalf("merged N %d, want %d", a.N(), whole.N())
	}
	if math.Abs(a.Sojourns.Mean()-whole.Sojourns.Mean()) > 1e-12 {
		t.Errorf("merged mean %v, want %v", a.Sojourns.Mean(), whole.Sojourns.Mean())
	}
	if math.Abs(a.Sojourns.Variance()-whole.Sojourns.Variance()) > 1e-9 {
		t.Errorf("merged variance %v, want %v", a.Sojourns.Variance(), whole.Sojourns.Variance())
	}
	if a.Batch.Batches() != whole.Batch.Batches() {
		t.Errorf("merged %d batches, want %d", a.Batch.Batches(), whole.Batch.Batches())
	}
	if a.MaxQueue != 7 {
		t.Errorf("merged max queue %d, want 7", a.MaxQueue)
	}
}

// TestSketchStreamMergeMatchesSingleStream is the tail claim of the test
// above: sketch quantiles of the merged shards equal the whole-stream
// quantiles exactly, not just bucket-wise.
func TestSketchStreamMergeMatchesSingleStream(t *testing.T) {
	whole, a := shardedStreams()
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("merged q%.3f = %v, want %v", q, got, want)
		}
	}
}

// TestStreamAddBatchSketch: the sketch arm of AddBatch must leave every
// accumulator in the identical state as per-observation Add calls.
func TestStreamAddBatchSketch(t *testing.T) {
	batched := NewSketchStream(25, DefaultAlpha, DefaultSketchBudget)
	looped := NewSketchStream(25, DefaultAlpha, DefaultSketchBudget)
	rng := rand.New(rand.NewPCG(4, 2))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
		looped.Add(xs[i])
	}
	batched.AddBatch(xs)
	if batched.Sojourns != looped.Sojourns {
		t.Errorf("moments diverged: %+v vs %+v", batched.Sojourns, looped.Sojourns)
	}
	if batched.Batch.Batches() != looped.Batch.Batches() {
		t.Errorf("batches %d vs %d", batched.Batch.Batches(), looped.Batch.Batches())
	}
	for _, q := range []float64{0.5, 0.99} {
		if a, b := batched.Quantile(q), looped.Quantile(q); a != b {
			t.Errorf("q%v: %v vs %v", q, a, b)
		}
	}
}

// TestStreamStateBytes pins the memory story of the sketch estimator: a
// stream is O(KB), which is what lets the live recorder shard per server.
func TestStreamStateBytes(t *testing.T) {
	sk := NewSketchStream(100, DefaultAlpha, DefaultSketchBudget)
	if sb := sk.StateBytes(); sb > 16*1024 {
		t.Errorf("sketch stream %d B, want O(KB)", sb)
	}
}
