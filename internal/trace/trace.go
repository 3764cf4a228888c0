// Package trace is a flight recorder for individual job lifecycles.
//
// Both runtimes in this repo — the discrete-event simulator
// (internal/sim) and the live goroutine farm (internal/lb) — aggregate
// delay into streams and sketches, which answers "how much" but never
// "where": is a slow job paying for the pick decision, for queueing
// behind its neighbours, or for service itself? The Recorder answers
// that with per-job Spans carrying the five lifecycle timestamps
// (arrival → pick decision → enqueue → service start → completion)
// plus the chosen server, the queue length the job saw, and the
// policy's tie-break count.
//
// Three properties make it safe to leave wired into the hot paths:
//
//   - Flight-recorder storage. Completed spans land in a fixed-capacity
//     lock-free ring (a per-slot seqlock over atomic words): the last K
//     spans are always available, memory never grows, and a reader
//     (Spans) never blocks a writer. A writer that laps a concurrent
//     writer on the same slot drops its span rather than spin.
//
//   - Deterministic sampling. Whether job number s is traced is a pure
//     function of s and the seed (an avalanching hash keyed by an
//     internal/frand draw at construction), so traced runs are
//     seed-reproducible and — crucially — the recorder never consumes a
//     draw from the caller's rng stream: tracing on or off, sampled or
//     not, the simulator's random sequence is bit-identical.
//
//   - Zero allocation. Every per-job method is allocation-free and
//     carries a //finitelb:hotpath annotation, so the analyzers in
//     internal/lint hold the recorder to the same floor as the event
//     loops it instruments.
//
// Timestamps are float64 in whatever unit the producer uses (model time
// for the simulator, nanoseconds since an epoch for the live runtime);
// Config.Scale converts stage durations into mean-service-time units
// before they feed the per-stage delay-decomposition sketches.
package trace

import (
	"math"
	"sync"
	"sync/atomic"

	"finitelb/internal/frand"
	"finitelb/internal/stats"
)

// Span is one job's recorded lifecycle. Timestamps are in the
// producer's time unit; stage durations are differences of adjacent
// stamps and telescope exactly to Done−Arrival.
type Span struct {
	Seq    uint64 // job's position in the arrival order (0-based)
	Server int32  // chosen server id, −1 before the pick
	QLen   int32  // queue length seen at the pick, before this job joined
	Ties   int32  // candidates tied at the minimum (≥1), −1 if the policy doesn't report
	// Failure-domain fields: how many times the job was redelivered
	// before this span closed, and how it left the system.
	Retries int32
	Outcome uint8
	// Lifecycle timestamps, in producer units.
	Arrival  float64 // job observed by the dispatcher
	Picked   float64 // destination decided
	Enqueued float64 // job appended to the destination queue
	Start    float64 // service began
	Done     float64 // service completed
}

// Handle identifies a claimed in-flight span; None means "this job is
// not traced" and makes every per-job method a no-op.
type Handle int32

// None is the handle of an untraced job.
const None Handle = -1

// Span outcomes. Zero means "unset" (spans published before the
// failure-domain fields existed decode as unset).
const (
	OutcomeCompleted uint8 = 1 // served to completion
	OutcomeDropped   uint8 = 2 // left unserved: deadline expired or retry budget exhausted
)

// Config sizes a Recorder. Zero values select the defaults; Cap,
// Sample and Pending are rounded up to powers of two.
type Config struct {
	Cap     int     // ring capacity in spans (default DefaultCap)
	Sample  int     // trace 1 in Sample jobs (default DefaultSample; 1 = every job)
	Pending int     // max concurrently in-flight traced jobs (default DefaultPending)
	Seed    uint64  // sampling key seed; same seed ⇒ same sampled set
	Scale   float64 // divide stage durations by this before sketching (default 1)
}

// Default Config values.
const (
	DefaultCap     = 1024
	DefaultSample  = 1024
	DefaultPending = 256
)

// traceStream salts the frand seed so the sampling key is independent
// of any simulation stream derived from the same seed.
const traceStream = 0x7472616365 // "trace"

// slotWords is the span encoding width: seq, five timestamps,
// server|qlen, ties|retries|outcome.
const slotWords = 8

// slot is one ring entry: a seqlock version (even = stable, odd =
// write in progress) over an atomically-accessed span encoding, so
// readers never tear a span and the race detector sees only atomics.
type slot struct {
	ver  atomic.Uint64
	data [slotWords]atomic.Uint64
}

// pending is an in-flight traced job. Between the CAS claim (Start)
// and the release (Done/Abort) the span is owned by exactly one job's
// call chain; the state atomic publishes the hand-off.
type pending struct {
	state atomic.Uint32
	span  Span
}

// Recorder samples job lifecycles into a bounded ring and per-stage
// delay sketches. All per-job methods are safe for concurrent use.
type Recorder struct {
	mask       uint64 // ring index mask (len(slots)−1)
	pmask      uint64 // pending index mask
	sampleMask uint64 // sample−1; hash&mask==0 ⇒ traced
	sample     int
	key        uint64  // frand-derived hash key
	invScale   float64 // 1/Config.Scale

	seq     atomic.Uint64 // jobs observed (sampled or not)
	sampled atomic.Uint64 // jobs that hit the sampler
	widx    atomic.Uint64 // publish tickets issued
	dropped atomic.Uint64 // sampled jobs lost: pending pool full or ring lap
	aborted atomic.Uint64 // sampled jobs that left before completion (e.g. rejected)
	phint   atomic.Uint64 // rotating scan start for the pending pool

	slots []slot
	pend  []pending

	mu                       sync.Mutex
	alpha                    float64
	budget                   int
	pick, wait, service      *stats.Sketch
	pickN                    int64 // observations per stage (equal across stages)
	pickSum, waitSum, svcSum float64
}

// New builds a Recorder from cfg (zero fields take defaults).
func New(cfg Config) *Recorder {
	capacity := ceilPow2(cfg.Cap, DefaultCap)
	sample := ceilPow2(cfg.Sample, DefaultSample)
	pend := ceilPow2(cfg.Pending, DefaultPending)
	scale := cfg.Scale
	if !(scale > 0) {
		scale = 1
	}
	r := &Recorder{
		mask:       uint64(capacity - 1),
		pmask:      uint64(pend - 1),
		sampleMask: uint64(sample - 1),
		sample:     sample,
		key:        frand.New(cfg.Seed, traceStream).Uint64(),
		invScale:   1 / scale,
		slots:      make([]slot, capacity),
		pend:       make([]pending, pend),
		alpha:      stats.DefaultAlpha,
		budget:     stats.DefaultSketchBudget,
	}
	r.pick = stats.NewSketch(r.alpha, r.budget)
	r.wait = stats.NewSketch(r.alpha, r.budget)
	r.service = stats.NewSketch(r.alpha, r.budget)
	return r
}

func ceilPow2(v, def int) int {
	if v <= 0 {
		v = def
	}
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// hit reports whether job seq is in the sampled set: an avalanching
// finalizer (splitmix64's) over seq+key, masked to 1-in-sample. Pure in
// (seq, key) — no rng stream is consumed.
//
//finitelb:hotpath
func (r *Recorder) hit(seq uint64) bool {
	x := seq + r.key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x&r.sampleMask == 0
}

// Start books one job arrival at time now and, if the job is sampled,
// claims a pending slot and returns its handle; otherwise None. Called
// once per job, traced or not, so Seq numbers every arrival.
//
//finitelb:hotpath
func (r *Recorder) Start(now float64) Handle {
	seq := r.seq.Add(1) - 1
	if !r.hit(seq) {
		return None
	}
	r.sampled.Add(1)
	h0 := r.phint.Add(1)
	for i := uint64(0); i <= r.pmask; i++ {
		p := &r.pend[(h0+i)&r.pmask]
		if p.state.Load() == 0 && p.state.CompareAndSwap(0, 1) {
			p.span = Span{Seq: seq, Server: -1, QLen: -1, Ties: -1, Arrival: now}
			return Handle((h0 + i) & r.pmask)
		}
	}
	r.dropped.Add(1)
	return None
}

// Picked records the destination decision: the chosen server, the
// queue length the policy saw there (before this job joined), and how
// many candidates were tied at the minimum (−1 when the policy doesn't
// report ties).
//
//finitelb:hotpath
func (r *Recorder) Picked(h Handle, now float64, server, qlen, ties int) {
	if h < 0 {
		return
	}
	sp := &r.pend[h].span
	sp.Picked = now
	sp.Server = int32(server)
	sp.QLen = int32(qlen)
	sp.Ties = int32(ties)
}

// Enqueued records the job landing in the destination queue.
//
//finitelb:hotpath
func (r *Recorder) Enqueued(h Handle, now float64) {
	if h < 0 {
		return
	}
	r.pend[h].span.Enqueued = now
}

// Started records service beginning.
//
//finitelb:hotpath
func (r *Recorder) Started(h Handle, now float64) {
	if h < 0 {
		return
	}
	r.pend[h].span.Start = now
}

// Retried notes one redelivery of the traced job: its copy was
// requeued (crash, graceful leave, or a hedge) and will run again. The
// count survives into the published span.
//
//finitelb:hotpath
func (r *Recorder) Retried(h Handle) {
	if h < 0 {
		return
	}
	r.pend[h].span.Retries++
}

// Done completes the span: publishes it to the ring with
// OutcomeCompleted, feeds the stage sketches, and releases the pending
// slot.
//
//finitelb:hotpath
func (r *Recorder) Done(h Handle, now float64) {
	if h < 0 {
		return
	}
	p := &r.pend[h]
	p.span.Done = now
	p.span.Outcome = OutcomeCompleted
	sp := p.span
	p.state.Store(0)
	r.publish(&sp)
	r.observe(&sp)
}

// Drop completes the span for a job that left the system unserved
// after admission (deadline expired, retry budget exhausted): the span
// is published with OutcomeDropped so the flight recorder shows *why*
// the job vanished, but it does not feed the stage sketches — a
// dropped job has no service decomposition.
//
//finitelb:hotpath
func (r *Recorder) Drop(h Handle, now float64) {
	if h < 0 {
		return
	}
	p := &r.pend[h]
	p.span.Done = now
	p.span.Outcome = OutcomeDropped
	sp := p.span
	p.state.Store(0)
	r.publish(&sp)
}

// Abort releases a claimed span without publishing (the job left the
// system unserved, e.g. rejected on a full queue).
//
//finitelb:hotpath
func (r *Recorder) Abort(h Handle) {
	if h < 0 {
		return
	}
	r.pend[h].state.Store(0)
	r.aborted.Add(1)
}

// publish writes sp into its ring slot under the slot seqlock. If
// another writer is mid-flight on the same slot (the ring has lapped
// within one publish — requires ≥cap concurrent completions), the span
// is dropped rather than torn.
//
//finitelb:hotpath
func (r *Recorder) publish(sp *Span) {
	w := r.widx.Add(1) - 1
	sl := &r.slots[w&r.mask]
	v := sl.ver.Load()
	if v&1 != 0 || !sl.ver.CompareAndSwap(v, v+1) {
		r.dropped.Add(1)
		return
	}
	sl.data[0].Store(sp.Seq)
	sl.data[1].Store(math.Float64bits(sp.Arrival))
	sl.data[2].Store(math.Float64bits(sp.Picked))
	sl.data[3].Store(math.Float64bits(sp.Enqueued))
	sl.data[4].Store(math.Float64bits(sp.Start))
	sl.data[5].Store(math.Float64bits(sp.Done))
	sl.data[6].Store(uint64(uint32(sp.Server))<<32 | uint64(uint32(sp.QLen)))
	sl.data[7].Store(uint64(uint32(sp.Ties)) |
		uint64(uint16(sp.Retries))<<32 |
		uint64(sp.Outcome)<<48)
	sl.ver.Add(1)
}

// observe feeds the stage sketches. Durations are scaled to
// mean-service units and clamped at zero: on the live runtime service
// can begin before the enqueue *observation* lands (the server's work
// clock runs ahead of the dispatcher's bookkeeping), so queue wait may
// be measured slightly negative; the raw timestamps in the ring keep
// the exact values.
//
//finitelb:hotpath
func (r *Recorder) observe(sp *Span) {
	pick := (sp.Picked - sp.Arrival) * r.invScale
	wait := (sp.Start - sp.Enqueued) * r.invScale
	svc := (sp.Done - sp.Start) * r.invScale
	if !(pick > 0) {
		pick = 0
	}
	if !(wait > 0) {
		wait = 0
	}
	if !(svc > 0) {
		svc = 0
	}
	r.mu.Lock()
	r.pick.Add(pick)
	r.wait.Add(wait)
	r.service.Add(svc)
	r.pickN++
	r.pickSum += pick
	r.waitSum += wait
	r.svcSum += svc
	r.mu.Unlock()
}

// Spans returns up to max completed spans, most recent first (max < 0
// means "all available"). It is safe against concurrent writers: a
// slot caught mid-write is retried a few times and then skipped, never
// returned torn.
func (r *Recorder) Spans(max int) []Span {
	w := r.widx.Load()
	n := uint64(len(r.slots))
	if w < n {
		n = w
	}
	if max >= 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Span, 0, n)
	for i := uint64(0); i < n; i++ {
		sl := &r.slots[(w-1-i)&r.mask]
		for try := 0; try < 4; try++ {
			v1 := sl.ver.Load()
			if v1 == 0 || v1&1 != 0 {
				continue
			}
			var d [slotWords]uint64
			for k := range d {
				d[k] = sl.data[k].Load()
			}
			if sl.ver.Load() != v1 {
				continue
			}
			out = append(out, decodeSpan(&d))
			break
		}
	}
	return out
}

func decodeSpan(d *[slotWords]uint64) Span {
	return Span{
		Seq:      d[0],
		Arrival:  math.Float64frombits(d[1]),
		Picked:   math.Float64frombits(d[2]),
		Enqueued: math.Float64frombits(d[3]),
		Start:    math.Float64frombits(d[4]),
		Done:     math.Float64frombits(d[5]),
		Server:   int32(uint32(d[6] >> 32)),
		QLen:     int32(uint32(d[6])),
		Ties:     int32(uint32(d[7])),
		Retries:  int32(uint16(d[7] >> 32)),
		Outcome:  uint8(d[7] >> 48),
	}
}

// Stages is a point-in-time copy of the per-stage delay decomposition,
// in mean-service-time units. The three sketches have equal N (one
// observation per completed span) and their sums decompose the total:
// PickSum+WaitSum+ServiceSum ≈ sum of recorded sojourns (exactly, up
// to the zero-clamp documented on observe).
type Stages struct {
	N                            int64
	Pick, Wait, Service          *stats.Sketch
	PickSum, WaitSum, ServiceSum float64
}

// Stages snapshots the stage sketches (deep copies; safe to read while
// recording continues).
func (r *Recorder) Stages() Stages {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stages{
		N:          r.pickN,
		Pick:       r.cloneSketch(r.pick),
		Wait:       r.cloneSketch(r.wait),
		Service:    r.cloneSketch(r.service),
		PickSum:    r.pickSum,
		WaitSum:    r.waitSum,
		ServiceSum: r.svcSum,
	}
}

func (r *Recorder) cloneSketch(s *stats.Sketch) *stats.Sketch {
	c := stats.NewSketch(r.alpha, r.budget)
	c.Merge(s)
	return c
}

// Seen returns the number of jobs observed by Start (traced or not).
func (r *Recorder) Seen() uint64 { return r.seq.Load() }

// Sampled returns how many jobs hit the sampler.
func (r *Recorder) Sampled() uint64 { return r.sampled.Load() }

// Published returns how many completed spans were offered to the ring.
func (r *Recorder) Published() uint64 { return r.widx.Load() }

// Dropped returns sampled jobs lost to capacity: pending-pool
// exhaustion or a ring-lap collision.
func (r *Recorder) Dropped() uint64 { return r.dropped.Load() }

// Aborted returns sampled jobs that left the system unserved.
func (r *Recorder) Aborted() uint64 { return r.aborted.Load() }

// SampleEvery returns the effective sampling period (1 = every job).
func (r *Recorder) SampleEvery() int { return r.sample }

// Cap returns the ring capacity in spans.
func (r *Recorder) Cap() int { return len(r.slots) }

// PendingCap returns the size of the in-flight span pool.
func (r *Recorder) PendingCap() int { return len(r.pend) }
