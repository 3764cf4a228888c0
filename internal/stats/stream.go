package stats

// Stream bundles the accumulators of one sojourn-time measurement stream:
// running moments (Welford), a batch-means confidence interval, a tail
// estimator, and the largest queue length observed. It is the shared
// measurement currency of the repository — the discrete-event simulator
// (internal/sim) fills one per replication and the live dispatcher runtime
// (internal/lb) fills one per server shard — so simulated and live
// estimates are produced by byte-for-byte the same arithmetic and are
// directly comparable. Streams are not safe for concurrent use; accumulate
// per goroutine and Merge.
//
// The tail estimator is the mergeable relative-error quantile sketch.
type Stream struct {
	Sojourns Welford
	Batch    *BatchMeans
	Sketch   *Sketch
	MaxQueue int
}

// NewSketchStream creates a stream with the given batch size for the
// confidence interval and a quantile sketch with relative accuracy alpha
// and at most budget buckets — O(KB) of state with no upper range limit.
func NewSketchStream(batchSize int64, alpha float64, budget int) *Stream {
	return &Stream{
		Batch:  NewBatchMeans(batchSize),
		Sketch: NewSketch(alpha, budget),
	}
}

// Add records one sojourn observation into every accumulator.
func (s *Stream) Add(sojourn float64) {
	s.Batch.Add(sojourn)
	s.Sojourns.Add(sojourn)
	s.Sketch.Add(sojourn)
}

// AddBatch records a block of observations, equivalent to calling Add on
// each in order (identical accumulator arithmetic, identical final state)
// but amortizing the per-observation call chain: the simulator's event
// loop buffers measured sojourns on its stack and flushes them in blocks,
// which keeps the accumulator objects out of the per-event working set.
// The batch-means step is BatchMeans.Add's, hand-fused (same package, same
// fields, same operation order — bit-identical accumulator states); the
// sketch's Add is already a leaf call.
//
//finitelb:hotpath
func (s *Stream) AddBatch(xs []float64) {
	b, sk := s.Batch, s.Sketch
	for _, x := range xs {
		b.cur.Add(x)
		if b.cur.n == b.batchSize {
			b.batches.Add(b.cur.Mean())
			b.cur = Welford{}
		}
		s.Sojourns.Add(x)
		sk.Add(x)
	}
}

// ObserveQueue records a queue length; only the running maximum is kept.
func (s *Stream) ObserveQueue(l int) {
	if l > s.MaxQueue {
		s.MaxQueue = l
	}
}

// N returns the number of sojourns recorded.
func (s *Stream) N() int64 { return s.Sojourns.N() }

// Quantile estimates the q-quantile of the sojourn stream.
func (s *Stream) Quantile(q float64) float64 { return s.Sketch.Quantile(q) }

// StateBytes returns the approximate in-memory footprint of the stream's
// accumulators — in practice the sketch, which dominates.
func (s *Stream) StateBytes() int {
	return 128 + s.Sketch.StateBytes() // Welford + BatchMeans + header
}

// Merge folds another stream into s, pooling moments, batch means, and
// sketch state exactly as if s had also seen o's observations (up to o's
// partial trailing batch, which is discarded as in a single-stream run).
// Batch sizes and sketch configurations must match.
func (s *Stream) Merge(o *Stream) {
	s.Sojourns.Merge(o.Sojourns)
	s.Batch.Merge(o.Batch)
	s.Sketch.Merge(o.Sketch)
	if o.MaxQueue > s.MaxQueue {
		s.MaxQueue = o.MaxQueue
	}
}
