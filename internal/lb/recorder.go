package lb

import (
	"sync"
	"sync/atomic"
	"time"

	"finitelb/internal/stats"
)

// Recorder accumulates live sojourn measurements in the same currency as
// the discrete-event simulator: time normalized by the configured mean
// service (so a sojourn of 2.0 means "two mean service times", directly
// comparable to sim.Result and to the QBD bounds), through the same
// stats.Stream arithmetic (Welford moments, batch-means confidence
// intervals, mergeable quantile sketch). Completions land in sharded
// accumulators and Snapshot pools the shards exactly as the simulator
// pools replications — exactly in the literal sense: the sketch's
// canonical merge makes shard-pooled tail quantiles bit-equal to a
// single-stream accumulation, whatever the sharding.
//
// Shards hold a quantile sketch (~9 KB) instead of the former 25k-bin
// histogram (~200 KB) — the shape that once put ~2 GB of accumulator
// state on a 10⁴-server farm, whose GC cycles purged the dispatcher
// sync.Pool mid-flight (the stray ~1 B/op the N=10⁴ dispatch benchmarks
// used to show). At sketch size the recShards cap can sit at 1024:
// per-server sharding headroom through N=1024 (and 64× less mutex
// contention above) for under 10 MB worst case.
type Recorder struct {
	meanServiceNs float64
	batchSize     int64

	warmupLeft atomic.Int64 // completions still to discard
	completed  atomic.Int64 // total completions, including warmup
	maxQueue   atomic.Int64 // largest queue length reserved by a dispatch

	// Per-outcome job counters — the failure-domain ledger beside the
	// delay statistics (exported by cmd/lbd as lbd_jobs_total{outcome}).
	requeued atomic.Int64 // job copies sent back through dispatch (crash/leave/hedge)
	retried  atomic.Int64 // redeliveries that re-entered a queue
	shed     atomic.Int64 // admissions refused by an SLO guard (NoteShed)
	dropped  atomic.Int64 // accepted jobs that left unserved (deadline, budget, shutdown)

	shards []recShard
	mask   int
}

// recShards caps the shard count (power of two; servers hash in by id,
// so below the cap sharding is per-server and contention-free).
const recShards = 1024

type recShard struct {
	mu      sync.Mutex
	stream  *stats.Stream
	service stats.Welford // realized service durations, work units
	_       [64]byte      // keep neighbouring shards off one cache line
}

func newRecorder(n int, meanService time.Duration, warmup, batchSize int64) *Recorder {
	s := 1
	for s < n && s < recShards {
		s <<= 1
	}
	r := &Recorder{
		meanServiceNs: float64(meanService.Nanoseconds()),
		batchSize:     batchSize,
		shards:        make([]recShard, s),
		mask:          s - 1,
	}
	r.warmupLeft.Store(warmup)
	for i := range r.shards {
		// Sketch configuration shared with internal/sim, so live and
		// simulated tails are the same estimator at the same accuracy.
		r.shards[i].stream = stats.NewSketchStream(batchSize, stats.DefaultAlpha, stats.DefaultSketchBudget)
	}
	return r
}

// record books one completion at server i: the job's full sojourn and its
// realized (wall-clock) service duration.
func (r *Recorder) record(i int, sojourn, service time.Duration) {
	r.completed.Add(1)
	if r.warmupLeft.Add(-1) >= 0 {
		return
	}
	sh := &r.shards[i&r.mask]
	sh.mu.Lock()
	sh.stream.Add(float64(sojourn) / r.meanServiceNs)
	sh.service.Add(float64(service) / r.meanServiceNs)
	sh.mu.Unlock()
}

// observeQueue keeps the running maximum of reserved queue lengths.
func (r *Recorder) observeQueue(l int) {
	for {
		cur := r.maxQueue.Load()
		if int64(l) <= cur || r.maxQueue.CompareAndSwap(cur, int64(l)) {
			return
		}
	}
}

// Completed returns the total completions so far, including warmup.
func (r *Recorder) Completed() int64 { return r.completed.Load() }

// Outcomes is the per-outcome job ledger. Completed counts jobs served
// to the end; Requeued counts copies sent back through dispatch after a
// crash, graceful leave, or hedge; Retried counts redeliveries that
// re-entered a queue; Shed counts admissions refused by an SLO guard
// (see NoteShed); Dropped counts accepted jobs that left unserved —
// deadline expiry, exhausted redelivery budget, or shutdown overtaking
// a redelivery. At quiescence, accepted = Completed + Dropped.
type Outcomes struct {
	Completed int64
	Requeued  int64
	Retried   int64
	Shed      int64
	Dropped   int64
}

// Outcomes snapshots the per-outcome counters.
func (r *Recorder) Outcomes() Outcomes {
	return Outcomes{
		Completed: r.completed.Load(),
		Requeued:  r.requeued.Load(),
		Retried:   r.retried.Load(),
		Shed:      r.shed.Load(),
		Dropped:   r.dropped.Load(),
	}
}

// NoteShed books one admission refused by a load-shedding guard above
// the farm (cmd/lbd's SLO gate); the farm itself never sheds.
func (r *Recorder) NoteShed() { r.shed.Add(1) }

// Summary is a point-in-time statistical snapshot of the live system, in
// the simulator's units: times are multiples of the configured mean
// service.
type Summary struct {
	MeanDelay float64 // mean sojourn, in mean service times
	MeanWait  float64 // MeanDelay − 1 (the unit mean service)
	HalfWidth float64 // 95% batch-means CI half-width on MeanDelay
	Jobs      int64   // measured completions (after warmup)
	Completed int64   // total completions, including warmup
	Rejected  int64   // jobs refused on a full queue
	MaxQueue  int     // largest queue length reserved by a dispatch

	// Sojourn quantiles, in mean service times (sketch-estimated within
	// 1% relative error, with no range ceiling).
	P50, P95, P99, P999 float64

	// MeanService is the realized mean service duration in units of the
	// configured one — the live system's fidelity gauge. ≈1 when the
	// compensated sleeper renders service times faithfully; a persistent
	// excess means the host's timers are inflating service (and therefore
	// every delay above).
	MeanService float64

	// Outcomes is the per-outcome job ledger (requeues, retries, sheds,
	// drops beside the completions).
	Outcomes Outcomes
}

// merge pools every shard into one fresh stream; callers get exactly the
// state a single unsharded stream would hold (canonical sketch merge).
// It may run concurrently with recording; each shard is locked only while
// merged.
func (r *Recorder) merge() (*stats.Stream, stats.Welford) {
	merged := stats.NewSketchStream(r.batchSize, stats.DefaultAlpha, stats.DefaultSketchBudget)
	var service stats.Welford
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		merged.Merge(sh.stream)
		service.Merge(sh.service)
		sh.mu.Unlock()
	}
	return merged, service
}

// Snapshot pools all shards into one Summary.
func (r *Recorder) Snapshot() Summary {
	merged, service := r.merge()
	s := Summary{
		MeanDelay:   merged.Sojourns.Mean(),
		MeanWait:    merged.Sojourns.Mean() - 1,
		HalfWidth:   merged.Batch.HalfWidth(),
		Jobs:        merged.N(),
		Completed:   r.completed.Load(),
		MaxQueue:    int(r.maxQueue.Load()),
		MeanService: service.Mean(),
		Outcomes:    r.Outcomes(),
	}
	if merged.N() > 0 {
		s.P50 = merged.Quantile(0.50)
		s.P95 = merged.Quantile(0.95)
		s.P99 = merged.Quantile(0.99)
		s.P999 = merged.Quantile(0.999)
	}
	return s
}

// TailBuckets returns the pooled sojourn distribution as at most max
// cumulative buckets at exact log-spaced boundaries — the payload of
// cmd/lbd's native Prometheus histogram. May be nil before any
// measurement.
func (r *Recorder) TailBuckets(max int) []stats.TailBucket {
	merged, _ := r.merge()
	return merged.Sketch.CumulativeBuckets(max)
}

// TailSketch returns the pooled sojourn sketch — the caller's own copy,
// merge builds it fresh — or nil before any measurement. Successive
// snapshots difference into windowed quantiles via
// stats.(*Sketch).DiffQuantile — the measured side of cmd/lbd's
// SLO-guarded load shedding.
func (r *Recorder) TailSketch() *stats.Sketch {
	merged, _ := r.merge()
	if merged.N() == 0 {
		return nil
	}
	return merged.Sketch
}

// StateBytes reports the total accumulator footprint across shards — the
// number the sketch migration is about: ~9 KB per shard against the
// former 200 KB histograms.
func (r *Recorder) StateBytes() int {
	total := 0
	for i := range r.shards {
		total += r.shards[i].stream.StateBytes()
	}
	return total
}
