package lb

import (
	"sync"
	"testing"
	"time"

	"finitelb/internal/frand"
	"finitelb/internal/stats"
)

// TestRecorderMergeEqualsSingleStream is the property behind the
// Recorder's sharding: pooling the per-server shards must give exactly
// the tail state a single unsharded sketch would hold — quantiles
// bit-equal — no matter how many goroutines race their completions in. The sketch's canonical collapse makes the merged
// state a pure function of the observation multiset, so the assertion
// is exact equality, not a tolerance.
func TestRecorderMergeEqualsSingleStream(t *testing.T) {
	const (
		n         = 64 // servers (shards are per-server at this size)
		writers   = 8
		perWriter = 5_000
		batchSize = 200
	)
	mean := time.Millisecond
	meanNs := float64(mean.Nanoseconds())
	rec := newRecorder(n, mean, 0, batchSize)

	// Pre-draw every completion deterministically: (server, sojourn).
	type obs struct {
		server  int
		sojourn time.Duration
	}
	all := make([][]obs, writers)
	rng := frand.New(42, 7)
	for w := range all {
		all[w] = make([]obs, perWriter)
		for i := range all[w] {
			// Heavy-ish tail so the shards collapse independently — the
			// regime where a non-canonical merge would drift.
			v := rng.ExpFloat64() * (1 + 50*rng.Float64())
			all[w][i] = obs{
				server:  rng.IntN(n),
				sojourn: time.Duration(v * meanNs),
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, o := range all[w] {
				rec.record(o.server, o.sojourn, o.sojourn)
			}
		}(w)
	}
	wg.Wait()

	// Reference: one unsharded sketch fed the same multiset, applying
	// the recorder's own quantization (Duration ns → service times).
	ref := stats.NewSketch(stats.DefaultAlpha, stats.DefaultSketchBudget)
	for _, ws := range all {
		for _, o := range ws {
			ref.Add(float64(o.sojourn) / meanNs)
		}
	}

	s := rec.Snapshot()
	if s.Jobs != writers*perWriter {
		t.Fatalf("snapshot jobs %d, want %d", s.Jobs, writers*perWriter)
	}
	for _, q := range []struct {
		p    float64
		got  float64
		name string
	}{
		{0.50, s.P50, "P50"},
		{0.95, s.P95, "P95"},
		{0.99, s.P99, "P99"},
		{0.999, s.P999, "P999"},
	} {
		if want := ref.Quantile(q.p); q.got != want {
			t.Errorf("%s: merged %v ≠ single-stream %v", q.name, q.got, want)
		}
	}
	// The pooled cumulative buckets (cmd/lbd's histogram payload) carry
	// the same guarantee.
	got := rec.TailBuckets(32)
	want := ref.CumulativeBuckets(32)
	if len(got) != len(want) {
		t.Fatalf("bucket count %d ≠ %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("bucket %d: merged %+v ≠ single-stream %+v", i, got[i], want[i])
		}
	}
}
