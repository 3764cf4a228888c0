// Package lb is the live side of the repository: a production-style
// concurrent load-balancer runtime that serves real traffic through the
// same dispatch policies the discrete-event simulator and the paper's QBD
// bound models reason about. N server goroutines drain bounded FIFO
// queues; a dispatcher routes each incoming job by sampling a sharded
// atomic queue-length table (SQ(d) stays O(d) with no global lock), a
// lock-free Treiber stack serves JIQ's idle hints, JSQ and LWL at
// N ≥ minindex.Threshold route through a lock-free hierarchical min-index
// over that table (O(log N) repair per dispatch/completion, O(log N)
// argmin per pick — see internal/minindex), and per-job service
// requirements are rendered in real time by a self-calibrating sleeper.
// Completions stream into a Recorder built on the simulator's own
// statistics (internal/stats), so live measurements come out in the same
// units — multiples of the mean service time — and can be laid directly
// against sim.Result and the paper's finite-N delay bounds. That closure
// is tested: the calibration suite drives this runtime with Poisson
// arrivals and exponential service and asserts the measured mean delay
// lands inside the QBD lower/upper bracket (see calibrate_test.go).
//
// The workload vocabulary is internal/workload, unchanged: any
// workload.Policy routes live traffic exactly as it routes simulated
// traffic, with two live-specific notes. Pickers are pooled per
// dispatching goroutine (the interfaces are documented single-goroutine),
// so stateful pickers like round-robin interleave across concurrent
// clients rather than cycling globally; and the JIQ policy's picker here
// is the idle stack — most-recently-idle rather than uniformly-random-idle,
// a distinction without a delay difference on homogeneous servers since
// either way the job starts service immediately.
//
// Membership is part of the farm the pickers see, not a special case of
// any policy: the dispatcher's view is the farm of the live servers
// (workload.Live), so with k servers down every policy is its ordinary
// picker on N−k servers — the same rule internal/sim applies, which is
// why a degraded live farm lands in the QBD bracket solved at
// (N−k, ρ·N/(N−k)).
package lb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"finitelb/internal/minindex"
	"finitelb/internal/trace"
	"finitelb/internal/workload"
)

// ErrClosed reports a dispatch attempted after Shutdown began.
var ErrClosed = errors.New("lb: dispatcher is shut down")

// ErrQueueFull reports a job refused because the picked server's bounded
// queue was at capacity. The caller sees loss semantics, as a real
// admission-controlled farm would; rejections are counted in the Summary.
var ErrQueueFull = errors.New("lb: picked server's queue is full")

// Config describes a live farm.
type Config struct {
	// N is the number of servers (required, ≥ 1).
	N int
	// Policy routes each job; default SQ(2) (SQ(1) when N = 1), the
	// paper's dispatcher. Any workload.Policy works, including the
	// work-aware LWL.
	Policy workload.Policy
	// Speeds are per-server speed factors; nil means homogeneous unit
	// speed. A job of requirement w occupies server i for
	// w/Speeds[i] × MeanService of wall time.
	Speeds []float64
	// QueueCap bounds each server's queue, including the job in service;
	// a job routed to a full queue is rejected with ErrQueueFull.
	// Default 4096.
	QueueCap int
	// MeanService is the wall-clock length of one unit of work — the
	// scale knob mapping the model's service-time unit onto real time.
	// Default 1ms.
	MeanService time.Duration
	// Warmup completions are excluded from the Recorder's statistics
	// (counted, not measured). Default 0.
	Warmup int64
	// BatchSize is the per-server batch size for the batch-means
	// confidence interval. Default 200.
	BatchSize int64
	// Seed seeds the per-dispatcher RNGs. Live timing is inherently
	// nondeterministic; the seed only decorrelates sampling choices.
	// Default 1.
	Seed uint64
	// RetryBudget bounds redeliveries per job: a job orphaned by a crash
	// or graceful leave is requeued at most RetryBudget times before it
	// is dropped (counted, surfaced as Done.Dropped). 0 selects the
	// default of 3; negative disables redelivery entirely.
	RetryBudget int
	// RetryBackoff is the base of the jittered exponential backoff
	// applied before a requeued job is redispatched: attempt k waits
	// RetryBackoff × 2^(k−1), ±50% jitter, capped at 64× the base.
	// 0 redispatches immediately.
	RetryBackoff time.Duration
	// Deadline bounds each job's sojourn: a job whose service has not
	// begun Deadline after its arrival is dropped instead of served
	// (checked on the work clock at the instant service would start).
	// 0 = no deadline.
	Deadline time.Duration
	// Hedge, when > 0, arms a hedge timer per dispatched job: if service
	// has not started Hedge after dispatch, a duplicate is routed to
	// another server and whichever copy starts service first wins — the
	// other copy cancels at its own service start (one completion, one
	// record, however the race falls). Costs one allocation and one
	// timer per job; off (0) the dispatch path is unchanged.
	Hedge time.Duration
	// Trace, when non-nil, attaches a flight recorder: sampled jobs get
	// lifecycle spans (arrival → pick → enqueue → service start →
	// completion, with the chosen server and the queue length seen) and
	// per-stage delay sketches. Timestamps are nanoseconds relative to
	// the farm's start; build the recorder with Scale set to
	// MeanService's nanoseconds to read the stage sketches in
	// service-time units. Tracing costs one extra clock read per
	// *sampled* job on the dispatch path and zero allocations.
	Trace *trace.Recorder
}

func (c *Config) setDefaults() error {
	if c.N < 1 {
		return fmt.Errorf("lb: N = %d, need at least one server", c.N)
	}
	if c.Policy == nil {
		d := 2
		if c.N == 1 {
			d = 1
		}
		c.Policy = workload.SQD{D: d}
	}
	if c.QueueCap == 0 {
		c.QueueCap = 4096
	}
	if c.QueueCap < 1 {
		return fmt.Errorf("lb: queue capacity %d, need ≥ 1", c.QueueCap)
	}
	if c.MeanService == 0 {
		c.MeanService = time.Millisecond
	}
	if c.MeanService <= 0 {
		return fmt.Errorf("lb: mean service %v, need > 0", c.MeanService)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("lb: warmup %d, need ≥ 0", c.Warmup)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 3
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("lb: retry backoff %v, need ≥ 0", c.RetryBackoff)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("lb: deadline %v, need ≥ 0", c.Deadline)
	}
	if c.Hedge < 0 {
		return fmt.Errorf("lb: hedge %v, need ≥ 0", c.Hedge)
	}
	return nil
}

// Done reports one completed job.
type Done struct {
	Server  int           // server that ran the job, −1 for a dropped job
	Sojourn time.Duration // arrival → completion (or drop)
	Service time.Duration // nominal service duration (work/speed × MeanService)
	Dropped bool          // the job left unserved: deadline expired or retry budget exhausted
}

// job travels from a dispatcher to a server goroutine.
type job struct {
	work    float64 // service requirement, work units
	workNs  int64   // requirement × MeanService, for the LWL work table
	arrival time.Time
	done    chan<- Done   // nil for fire-and-forget
	counted *atomic.Int64 // bumped at completion; lets a submitter await its own jobs
	// attempts counts redeliveries of this job (0 on first dispatch);
	// bounded by Config.RetryBudget.
	attempts int32
	// deadlineNs is the absolute drop deadline (UnixNano), 0 = none.
	deadlineNs int64
	// claim arbitrates hedged copies: nil for an unhedged job; otherwise
	// shared by every copy, and exactly one copy wins the 0→1 CAS at
	// service start (0→2 marks a drop). The losers clean up their queue
	// reservation and vanish without a record.
	claim *atomic.Int32
	// trace is the job's flight-recorder handle; meaningful only when
	// the farm has a recorder attached (always assigned then, mostly
	// trace.None). Ownership of the span follows the job: the dispatcher
	// writes up to Enqueued, the server writes Start/Done — the channel
	// send is the hand-off.
	trace trace.Handle
}

// rel converts a wall-clock instant to the recorder's timestamp unit:
// float64 nanoseconds since the farm's epoch (exact to well past a
// hundred days of uptime).
//
//finitelb:hotpath
func (lb *LB) rel(t time.Time) float64 { return float64(t.Sub(lb.epoch)) }

// durationNs converts float64 nanoseconds to a time.Duration, saturating
// at the int64 range instead of wrapping: Go leaves an out-of-range
// float→int conversion implementation-defined, and on amd64 it yields
// MinInt64 — a service stretched by an absurd slow factor, or a 1e9 job
// at a ten-second MeanService, would otherwise complete instantly and
// drive LWL's work ledger negative. NaN converts to 0.
//
//finitelb:hotpath
func durationNs(ns float64) time.Duration {
	switch {
	case ns != ns:
		return 0
	case ns >= 1<<63:
		return math.MaxInt64
	case ns <= -(1 << 63):
		return math.MinInt64
	}
	return time.Duration(ns)
}

// Trace returns the attached flight recorder (nil when tracing is off).
func (lb *LB) Trace() *trace.Recorder { return lb.tr }

// LB is the live dispatcher runtime. Create with New, feed with Dispatch
// or Do (safe for arbitrary concurrent callers), stop with Shutdown.
type LB struct {
	cfg           Config
	n             int
	meanServiceNs float64
	speeds        []float64
	queueCap      int32

	slots   table
	idle    *idleStack
	servers []*server
	rec     *Recorder
	sleep   *sleeper
	tr      *trace.Recorder // nil = tracing off
	epoch   time.Time       // zero point of trace timestamps

	// Hierarchical min-indexes over the slot table (nil below
	// minindex.Threshold, or when the policy doesn't dispatch on a global
	// argmin). lenTree keys on qlen for JSQ; workTree keys on outwork
	// (outstanding nominal work, quantized to µs and divided by the
	// server's speed) for LWL. Dispatchers and servers repair the tree
	// after every slot write, so a JSQ/LWL pick is O(log N) instead of the
	// O(N) scan that caps throughput near 80k jobs/sec at N=1000.
	lenTree  *minindex.Conc
	workTree *minindex.Conc

	jiq       bool // Policy is workload.JIQ: dispatch via the idle stack
	workAware bool // Policy needs the per-server work table

	dispatchers sync.Pool // *dispatcher
	seedCtr     atomic.Uint64

	// gate orders the sends to server channels against Shutdown. Every
	// send, and every retryWG.Add, runs under its read side after a check
	// of closed or chClosed; Shutdown flips each flag under the write
	// side. Once that Unlock returns, no bracket that saw the old value
	// is still open and every later one sees the new value.
	gate      sync.RWMutex
	srvWG     sync.WaitGroup
	closed    atomic.Bool
	closeOnce sync.Once
	accepted  atomic.Int64
	rejected  atomic.Int64

	// Failure-domain state. memberMu serializes the control-plane
	// membership ops (Leave/Crash/Join and the injectors); the data
	// plane reads only the per-slot atomics. stopCh is closed when
	// Shutdown begins: it flushes pending retry backoffs, unblocks a
	// dispatcher pause, and stops RunChurn. chClosed flips just before
	// the server channels close; redispatch brackets against it in gate
	// exactly as submitAt brackets against closed.
	memberMu sync.Mutex
	stopCh   chan struct{}
	stopOnce sync.Once
	chClosed atomic.Bool
	retryWG  sync.WaitGroup
	pause    atomic.Pointer[chan struct{}]

	// live is the membership snapshot, republished under memberMu on
	// every change. It is the farm the dispatchers show their pickers:
	// the policy runs on the Alive() survivors by rank, which keeps its
	// law — and therefore the QBD bracket solved at (alive, ρ·N/alive) —
	// intact while servers are down. A snapshot without a server is
	// published before that server's down flag is raised, and a rejoining
	// server's flag clears before the snapshot holding it is published,
	// so a dispatcher that finds its pick down reloads a snapshot that no
	// longer holds the server.
	live atomic.Pointer[workload.Live]
}

// dispatcher is the per-goroutine picking state (the workload interfaces
// are documented single-goroutine): an RNG, the policy's Picker for the
// live servers of view.live, and the farm view it samples. sync.Pool
// keeps one per P in steady state, so picks stay lock-free.
type dispatcher struct {
	rng    *rand.Rand
	picker workload.Picker
	view   qview
}

// bind points the dispatcher at a membership snapshot and rebuilds its
// picker for the servers alive in it. Control-plane-rare: once at
// construction, then once per membership change the dispatcher observes
// — so round-robin's cursor and SQ(d)'s permutation restart there.
func (d *dispatcher) bind(live *workload.Live) {
	lb := d.view.lb
	d.view.live = live
	if lb.jiq {
		d.picker = idlePicker{&d.view}
		return
	}
	picker, err := live.NewPicker(lb.cfg.Policy)
	if err != nil {
		// Unreachable: New validated the policy on the whole farm, and
		// the constructors only refuse an empty one.
		panic("lb: NewPicker failed after validation: " + err.Error())
	}
	d.picker = picker
}

// qview adapts the sharded table to the dispatcher's workload.Queues (and
// workload.WorkQueues) interfaces: the farm of the servers alive in live,
// addressed by rank. nowNs is set per dispatch so that LWL sees in-service
// remainders at the arrival instant.
type qview struct {
	lb    *LB
	live  *workload.Live
	nowNs int64
}

func (q *qview) N() int { return q.live.Alive() }

//finitelb:hotpath
func (q *qview) Len(r int) int { return int(q.lb.slots[q.live.ID(r)].qlen.Load()) }

// Work implements workload.WorkQueues: the server's time-to-drain in
// service-time units — queued (not yet started) work divided by the
// server's speed, plus the in-service wall-clock remainder.
//
//finitelb:hotpath
func (q *qview) Work(r int) float64 {
	i := q.live.ID(r)
	s := &q.lb.slots[i]
	w := float64(s.pending.Load()) / q.lb.speeds[i]
	if dl := s.deadline.Load(); dl != 0 {
		if rem := dl - q.nowNs; rem > 0 {
			w += float64(rem)
		}
	}
	return w / q.lb.meanServiceNs
}

// argminRank reports a min-index argmin as a rank of the view's snapshot.
// The indexes are keyed by server id over the whole farm with a down
// server at the ceiling, so the argmin is a live server unless it raced a
// membership change; then ok = false sends the picker to its scan.
//
//finitelb:hotpath
func (q *qview) argminRank(t *minindex.Conc, rng *rand.Rand) (int, bool) {
	if t == nil {
		return 0, false
	}
	r := q.live.Rank(t.Argmin(rng))
	return r, r >= 0
}

// ArgminLen implements workload.ArgminQueues when the length index is on:
// a uniformly-tie-broken shortest queue in O(log N) tree reads.
//
//finitelb:hotpath
func (q *qview) ArgminLen(rng *rand.Rand) (int, bool) { return q.argminRank(q.lb.lenTree, rng) }

// ArgminWork implements workload.ArgminWorkQueues when the work index is
// on. The index orders servers by outstanding nominal work — every
// accepted job's full requirement until it completes — rather than the
// scan view's queued-work-plus-in-service-remainder, so it overstates a
// busy server by at most the elapsed part of its in-service job; both
// orderings agree whenever backlogs differ by at least one job, which is
// when LWL's choice matters.
//
//finitelb:hotpath
func (q *qview) ArgminWork(rng *rand.Rand) (int, bool) { return q.argminRank(q.lb.workTree, rng) }

// New validates cfg, starts the N server goroutines, and returns a
// running farm.
func New(cfg Config) (*LB, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if _, err := cfg.Policy.NewPicker(cfg.N); err != nil {
		return nil, err
	}
	speeds := cfg.Speeds
	if speeds == nil {
		speeds = make([]float64, cfg.N)
		for i := range speeds {
			speeds[i] = 1
		}
	} else if len(speeds) != cfg.N {
		return nil, fmt.Errorf("lb: %d speed factors for N = %d servers", len(speeds), cfg.N)
	}
	for i, s := range speeds {
		if !(s > 0) {
			return nil, fmt.Errorf("lb: speed[%d] = %v, need > 0", i, s)
		}
	}

	lb := &LB{
		cfg:           cfg,
		n:             cfg.N,
		meanServiceNs: float64(cfg.MeanService.Nanoseconds()),
		speeds:        speeds,
		queueCap:      int32(cfg.QueueCap),
		slots:         newTable(cfg.N),
		rec:           newRecorder(cfg.N, cfg.MeanService, cfg.Warmup, cfg.BatchSize),
		sleep:         newSleeper(),
		tr:            cfg.Trace,
		epoch:         time.Now(),
		stopCh:        make(chan struct{}),
	}
	lb.live.Store(workload.NewLive(cfg.N))
	_, lb.jiq = cfg.Policy.(workload.JIQ)
	_, lb.workAware = cfg.Policy.(workload.WorkAware)
	if cfg.N >= minindex.Threshold {
		switch cfg.Policy.(type) {
		case workload.JSQ:
			lb.lenTree = minindex.NewConc(cfg.N, func(i int) uint32 {
				if lb.slots[i].down.Load() {
					// A down server keys at the ceiling so the argmin
					// routes around it whenever anyone is alive.
					return ^uint32(0)
				}
				if l := lb.slots[i].qlen.Load(); l > 0 {
					return uint32(l)
				}
				return 0
			})
		case workload.LWL:
			lb.workTree = minindex.NewConc(cfg.N, func(i int) uint32 {
				if lb.slots[i].down.Load() {
					return ^uint32(0)
				}
				us := float64(lb.slots[i].outwork.Load()) / lb.speeds[i] / 1e3
				if us >= float64(^uint32(0)) {
					return ^uint32(0)
				}
				if us <= 0 {
					return 0
				}
				return uint32(us)
			})
		}
	}
	if lb.jiq {
		lb.idle = newIdleStack(cfg.N)
		for i := 0; i < cfg.N; i++ {
			lb.slots[i].onStack.Store(true)
			lb.idle.push(i)
		}
	}
	lb.dispatchers.New = func() any {
		d := &dispatcher{rng: rand.New(rand.NewPCG(cfg.Seed, lb.seedCtr.Add(1)))}
		d.view.lb = lb
		d.bind(lb.live.Load())
		return d
	}

	lb.servers = make([]*server, cfg.N)
	lb.srvWG.Add(cfg.N)
	for i := range lb.servers {
		lb.servers[i] = &server{
			id:    i,
			speed: speeds[i],
			ch:    make(chan job, cfg.QueueCap),
		}
		go lb.servers[i].run(lb)
	}
	return lb, nil
}

// N returns the number of servers.
func (lb *LB) N() int { return lb.n }

// QueueLens snapshots every server's current queue length (including the
// job in service) — the same view the dispatch policies sample.
func (lb *LB) QueueLens() []int {
	lens := make([]int, lb.n)
	for i := range lens {
		lens[i] = int(lb.slots[i].qlen.Load())
	}
	return lens
}

// Recorder exposes the live measurement stream.
func (lb *LB) Recorder() *Recorder { return lb.rec }

// Summary snapshots the current statistics, including rejects.
func (lb *LB) Summary() Summary {
	s := lb.rec.Snapshot()
	s.Rejected = lb.rejected.Load()
	return s
}

// Dispatch routes one job of the given service requirement (in work
// units; 1.0 is a mean-sized job) to a server and returns without waiting
// for it. The job's sojourn is recorded by the runtime.
func (lb *LB) Dispatch(work float64) error {
	_, err := lb.submit(work, nil, nil)
	return err
}

// Do routes one job and waits for its completion (or ctx expiry — the job
// itself still runs to completion and is recorded; only the wait is
// abandoned).
func (lb *LB) Do(ctx context.Context, work float64) (Done, error) {
	ch := make(chan Done, 1)
	if _, err := lb.submit(work, ch, nil); err != nil {
		return Done{}, err
	}
	select {
	case d := <-ch:
		return d, nil
	case <-ctx.Done():
		return Done{}, ctx.Err()
	}
}

//finitelb:hotpath
func (lb *LB) submit(work float64, done chan<- Done, counted *atomic.Int64) (int, error) {
	return lb.submitAt(time.Now(), work, done, counted)
}

// checkWork rejects a service requirement outside (0, 1e9] (NaN
// included). The cap keeps requirement × MeanService far inside int64
// nanoseconds for any sane MeanService; durationNs saturates the rest.
func checkWork(work float64) error {
	if !(work > 0) || work > 1e9 {
		return fmt.Errorf("lb: job work %v outside (0, 1e9]", work)
	}
	return nil
}

// enter opens the bracket every send to a server channel runs inside:
// the read side of gate, then a check of the flag. Shutdown flips the
// flag under the write side, so no send can race past a closed channel.
// An external submission first waits out a dispatcher pause and stops at
// closed; a redelivery of an already accepted job ignores the pause and
// runs until chClosed, the later flag. On nil the caller owes
// gate.RUnlock, and must not enter again before it: a second read lock
// would wait behind a pending Shutdown that waits for the first.
//
//finitelb:hotpath
func (lb *LB) enter(external bool) error {
	flag := &lb.chClosed
	if external {
		flag = &lb.closed
		if p := lb.pause.Load(); p != nil {
			if err := lb.pauseWait(p); err != nil {
				return err
			}
		}
	}
	lb.gate.RLock()
	if flag.Load() {
		lb.gate.RUnlock()
		return ErrClosed
	}
	return nil
}

// dispatcherAt borrows a pooled dispatcher for picks at instant now (LWL
// reads in-service remainders against it); return it with
// lb.dispatchers.Put.
//
//finitelb:hotpath
func (lb *LB) dispatcherAt(now time.Time) *dispatcher {
	d := lb.dispatchers.Get().(*dispatcher)
	if lb.workAware {
		d.view.nowNs = now.UnixNano()
	}
	return d
}

// submitAt is submit with the arrival stamp supplied by the caller: the
// load generator drains every overdue arrival on a sleeper wake-up and
// stamps them all with one clock read.
//
//finitelb:hotpath
func (lb *LB) submitAt(arrival time.Time, work float64, done chan<- Done, counted *atomic.Int64) (int, error) {
	if err := checkWork(work); err != nil {
		return -1, err
	}
	if err := lb.enter(true); err != nil {
		return -1, err
	}
	defer lb.gate.RUnlock()

	d := lb.dispatcherAt(arrival)
	j := job{work: work, arrival: arrival, done: done, counted: counted, trace: trace.None}
	if lb.tr != nil {
		j.trace = lb.tr.Start(lb.rel(arrival))
	}
	if lb.cfg.Deadline > 0 {
		j.deadlineNs = arrival.Add(lb.cfg.Deadline).UnixNano()
	}
	target, err := lb.admit(d, &j)
	lb.dispatchers.Put(d)
	if err != nil {
		if j.trace >= 0 {
			lb.tr.Abort(j.trace)
		}
		return target, err
	}
	lb.accepted.Add(1)
	if lb.cfg.Hedge > 0 {
		lb.armHedge(&j, target)
	}
	if j.trace >= 0 {
		lb.tr.Enqueued(j.trace, lb.rel(time.Now()))
	}
	// Cannot block: qlen ≤ QueueCap bounds channel occupancy by the
	// channel's own capacity.
	lb.servers[target].ch <- j
	return target, nil
}

// admit is the per-job admission stage shared by submitAt and the
// redelivery path: pick a live target with the caller's dispatcher (from
// dispatcherAt), reserve a queue slot, and update every ledger and index. The pick is the policy's picker over the live
// servers' ranks, whatever the policy and however many servers are down.
// The job is prebuilt by the caller — admit never creates or aborts
// trace spans and never counts acceptance, so redeliveries of an
// already-accepted job reuse it unchanged. ErrQueueFull means the picked
// server's queue was full (the rejection is counted, nothing needs
// unwinding). The caller owns the send.
//
//finitelb:hotpath
func (lb *LB) admit(d *dispatcher, j *job) (int, error) {
	var target int
	for {
		if live := lb.live.Load(); live != d.view.live {
			d.bind(live)
		}
		target = d.view.live.ID(d.picker.Pick(d.rng, &d.view))
		if !lb.slots[target].down.Load() {
			break
		}
		// The pick raced a membership change. The snapshot without the
		// server was published before its flag went up (see LB.live), so
		// the reload above re-picks on a farm that no longer holds it.
	}
	s := &lb.slots[target]
	newLen := s.qlen.Add(1)
	if newLen > lb.queueCap {
		// Net-zero qlen change: the min-index never saw the reservation,
		// so there is nothing to repair.
		s.qlen.Add(-1)
		lb.rejected.Add(1)
		return target, ErrQueueFull
	}
	if lb.lenTree != nil {
		lb.lenTree.Update(target)
	}
	lb.rec.observeQueue(int(newLen))
	if j.trace >= 0 {
		// One clock read per sampled job; live pickers don't report tie
		// counts (the simulator's side of the recorder does). A
		// redelivery re-stamps, so the span shows the final routing.
		lb.tr.Picked(j.trace, lb.rel(time.Now()), target, int(newLen-1), -1)
	}
	if lb.workAware {
		j.workNs = int64(durationNs(j.work * lb.meanServiceNs))
		s.pending.Add(j.workNs)
		if lb.workTree != nil {
			s.outwork.Add(j.workNs)
			lb.workTree.Update(target)
		}
	}
	return target, nil
}

// DrainStats reports the fate of every job accepted before Shutdown.
type DrainStats struct {
	Completed int64 // jobs fully served (including warmup)
	Rejected  int64 // jobs refused on a full queue over the farm's lifetime
	Dropped   int64 // jobs dropped after acceptance: deadline, retry budget, or a redelivery overtaken by shutdown
	Abandoned int64 // jobs still queued when the drain deadline expired
}

// Shutdown stops admission and drains: it waits for in-flight
// dispatches, flushes pending retry backoffs, closes the server queues,
// and blocks until every queued job completes or ctx expires. Every
// accepted job is accounted for: served (Completed), dropped with a
// count and a final-outcome span (Dropped — deadline expiry, exhausted
// redelivery budget, or a redelivery whose only remaining targets were
// down), or — on deadline expiry only — still queued (Abandoned; the
// servers keep draining in the background and a later Shutdown call
// observes the progress). Safe to call multiple times.
func (lb *LB) Shutdown(ctx context.Context) (DrainStats, error) {
	// External submissions quiesce first: the write side waits out every
	// open bracket, and later ones observe closed.
	lb.gate.Lock()
	lb.closed.Store(true)
	lb.gate.Unlock()
	lb.stopOnce.Do(func() { close(lb.stopCh) })
	// A paused dispatcher would hold submitters (and RunChurn timers)
	// forever; release them so they observe closed and exit.
	lb.ResumeDispatch()
	// Then the retry goroutines: stopCh made every pending backoff flush
	// its redelivery immediately, those sends are synchronous in the
	// goroutines retryWG tracks, and no goroutine is added once closed
	// is set (scheduleRetry checks it under gate).
	lb.retryWG.Wait()
	// The only senders left are server goroutines redelivering jobs off
	// down servers. Those sends bracket in gate against chClosed the way
	// submitAt brackets against closed, so after this flip no send can
	// race the close below; later redeliveries observe chClosed and
	// finalize as drops instead.
	lb.gate.Lock()
	lb.chClosed.Store(true)
	lb.gate.Unlock()
	lb.closeOnce.Do(func() {
		for _, s := range lb.servers {
			close(s.ch)
		}
	})
	done := make(chan struct{})
	go func() {
		lb.srvWG.Wait()
		close(done)
	}()
	stats := func() DrainStats {
		return DrainStats{
			Completed: lb.rec.Completed(),
			Rejected:  lb.rejected.Load(),
			Dropped:   lb.rec.dropped.Load(),
		}
	}
	select {
	case <-done:
		return stats(), nil
	case <-ctx.Done():
		// accepted is frozen (admission is closed), so accepted −
		// completed − dropped is an exact cut of the still-queued jobs —
		// no window against racing completions, unlike summing live
		// queue lengths.
		st := stats()
		st.Abandoned = lb.accepted.Load() - st.Completed - st.Dropped
		return st, ctx.Err()
	}
}
