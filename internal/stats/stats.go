// Package stats provides the streaming statistics used by the simulators:
// Welford mean/variance accumulation and batch-means confidence intervals,
// the standard technique for correlated steady-state queueing output.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a running mean and variance in one pass. The zero
// value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += float64(delta * (x - w.mean)) // rounded: no FMA off amd64
}

// Merge folds another accumulator into w, as if w had also seen every
// observation recorded by o (Chan et al.'s parallel update). Used to pool
// moments across concurrently executed simulation replications.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// BatchMeans builds a confidence interval for the steady-state mean of a
// correlated series by averaging contiguous batches: batch averages become
// approximately independent once batches are much longer than the
// correlation time.
type BatchMeans struct {
	batchSize int64
	cur       Welford // within the current batch
	batches   Welford // across completed batch means
}

// NewBatchMeans creates an accumulator with the given batch size.
func NewBatchMeans(batchSize int64) *BatchMeans {
	if batchSize < 1 {
		panic(fmt.Sprintf("stats: invalid batch size %d", batchSize))
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add records one observation.
func (b *BatchMeans) Add(x float64) {
	b.cur.Add(x)
	if b.cur.N() == b.batchSize {
		b.batches.Add(b.cur.Mean())
		b.cur = Welford{}
	}
}

// Merge folds the completed batches of another accumulator into b. Batch
// means from independently seeded replications are independent draws of
// the same batch-mean distribution, so pooling them tightens the interval
// exactly as more batches from a single stream would. Each accumulator's
// partial trailing batch is discarded, as it is in a single-stream run.
// Batch sizes must match for the pooled batches to be identically
// distributed.
func (b *BatchMeans) Merge(o *BatchMeans) {
	if o.batchSize != b.batchSize {
		panic(fmt.Sprintf("stats: merging batch sizes %d and %d", b.batchSize, o.batchSize))
	}
	b.batches.Merge(o.batches)
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int64 { return b.batches.N() }

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 { return b.batches.Mean() }

// HalfWidth returns the half-width of an approximate 95% confidence
// interval for the mean (normal critical value; batch counts are large
// enough here that Student-t refinement is immaterial).
func (b *BatchMeans) HalfWidth() float64 {
	n := b.batches.N()
	if n < 2 {
		return math.Inf(1)
	}
	return 1.96 * b.batches.StdDev() / math.Sqrt(float64(n))
}

// Interval returns the 95% confidence interval (lo, hi).
func (b *BatchMeans) Interval() (lo, hi float64) {
	h := b.HalfWidth()
	return b.Mean() - h, b.Mean() + h
}
