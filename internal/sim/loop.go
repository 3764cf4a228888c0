package sim

import (
	"math"
	"math/rand/v2"

	"finitelb/internal/frand"
	"finitelb/internal/minindex"
	"finitelb/internal/sqd"
	"finitelb/internal/stats"
	"finitelb/internal/workload"
)

// loopState is the mutable per-stream state of the event loop. It persists
// across run calls, so a stream can be driven in chunks (the
// allocation-regression tests lean on that) with results bit-identical to
// one uninterrupted run.
type loopState struct {
	servers []server
	// qlen mirrors each server's queue length in a dense array: pickers
	// and the loop's own length checks read 4-byte entries off a few cache
	// lines instead of chasing into the 40-byte server structs, which at
	// N ≥ 1000 turned every SQ(d) probe into an L2 miss. The loop updates
	// it next to every push/pop; servers stay authoritative for contents.
	qlen   []int32
	speeds []float64
	fr     *frand.RNG
	// std wraps the same generator for code that only speaks *rand.Rand
	// (the minindex tie-break descents, the workload-interface adapters);
	// draws interleave on one stream.
	std *rand.Rand
	trk *tourTracker
	res *stats.Stream
	// tr is the optional flight-recorder adapter (nil = tracing off).
	// Every hook below sits behind a nil check and consumes no rng
	// draws, so trace-on runs are bit-identical to trace-off runs.
	tr *simTracer

	// Hierarchical min-indexes (nil below minindex.Threshold, or when the
	// policy doesn't dispatch on a global argmin): lenTree tracks queue
	// lengths for JSQ, workTree tracks backlog for LWL, so a pick is
	// O(log N) instead of the O(N) scan that dominates large-N sweeps.
	lenTree  *minindex.Seq
	workTree *minindex.Seq

	nextArrival float64
	departed    int64
	warmup      int64
	measured    int64
	now         float64 // current arrival instant, read by work-aware picks
	maxQueue    int
	// unit marks a homogeneous unit-speed fleet with no slow factor in
	// force: x/1.0 ≡ x in IEEE arithmetic, so the loop skips serviceTime —
	// a dependent FDIV feeding the tracker key — without changing a bit.
	unit    bool
	started bool

	// Failure-domain state (churn.go), allocated only for churn runs.
	// churn is the schedule still to fire and nextChurn its head's time,
	// +Inf once exhausted or without churn — the loop's third event
	// source costs churn-free runs that one compare. live is the
	// membership snapshot behind the farm view's ranks (nil while every
	// pick is concrete, so churn-free built-in wirings never touch it), and
	// slow holds per-server service-duration multipliers (1 = none).
	churn     []workload.ChurnEvent
	nextChurn float64
	live      *workload.Live
	slow      []float64

	// buf holds measured sojourns until they are flushed to res in one
	// AddBatch call — same accumulator arithmetic in the same order, minus
	// the per-event call chain into three heap objects.
	buf  [256]float64
	bufn int
}

// flush drains the sojourn buffer into the stream.
//
//finitelb:hotpath
func (st *loopState) flush() {
	if st.bufn > 0 {
		st.res.AddBatch(st.buf[:st.bufn])
		st.bufn = 0
	}
}

// serviceTime converts a requirement into server i's service duration.
//
//finitelb:hotpath
func (st *loopState) serviceTime(i int, req float64) float64 {
	x := req / st.speeds[i]
	if st.slow != nil {
		x *= st.slow[i]
	}
	return x
}

// workAt is server i's time-to-drain at the current arrival instant: the
// in-service remainder (completion − now, already in time units) plus the
// queued not-yet-started requirements divided by the server's speed.
//
//finitelb:hotpath
func (st *loopState) workAt(i int) float64 {
	if st.qlen[i] == 0 {
		return 0
	}
	rem := st.trk.at(i) - st.now
	if rem < 0 {
		rem = 0
	}
	return st.servers[i].pending/st.speeds[i] + rem
}

// isDown reports whether server i is out of the farm.
//
//finitelb:hotpath
func (st *loopState) isDown(i int) bool { return st.live != nil && st.live.Rank(i) < 0 }

// noteLen re-keys server i in the length index after a departure left it
// with l jobs. A down server stays masked: the in-service job a graceful
// leave lets finish must not bring its server back into the index.
//
//finitelb:hotpath
func (st *loopState) noteLen(i int, l int32) {
	if st.isDown(i) {
		return
	}
	st.lenTree.Update(i, float64(l))
}

// noteWork re-keys server i in the work index. The key is pending/speed +
// completion — the absolute-time form of workAt: among busy servers
// "− now" is a common shift that argmin ignores, and an idle server keys
// at 0, below every busy server's completion ≥ now ≥ 0. Down servers stay
// masked, as in noteLen.
//
//finitelb:hotpath
func (st *loopState) noteWork(i int) {
	if st.isDown(i) {
		return
	}
	if st.qlen[i] == 0 {
		st.workTree.Update(i, 0)
		return
	}
	st.workTree.Update(i, st.servers[i].pending/st.speeds[i]+st.trk.at(i))
}

// typedRunner binds one stenciled loop instantiation to its state.
type typedRunner struct {
	st  *loopState
	run func(jobs int64) // continues the stream until `jobs` measured
}

// newTypedRunner resolves a wiring onto the event loop: concrete samplers
// for the built-in arrival and service laws (stenciled pairwise by the
// generic loop) and concrete pickers for the built-in policies; a
// user-supplied implementation of a workload interface rides the same
// loop behind an adapter (samplers.go, pick.go) at one virtual hop per
// draw. The wiring must have passed resolve.
func newTypedRunner(p sqd.Params, w wiring, warmup int64, res *stats.Stream, seed uint64) *typedRunner {
	st := newLoopState(p, w, warmup, res, seed)
	pk := st.concretePicker(w.policy)
	if pk == nil || len(w.churn) > 0 {
		// The concrete pickers read the whole farm by id; a farm whose
		// membership changes picks over the rank view of its live servers.
		pk = st.adapterPicker(w.policy)
	}
	return &typedRunner{st: st, run: bindArr(st, w, pk)}
}

// newLoopState allocates the per-stream state for a wiring: servers,
// tracker, the min-index the policy dispatches on, and — for churn runs —
// the failure-domain state. The initial rings are slices of one slab:
// one allocation instead of N at set-up.
func newLoopState(p sqd.Params, w wiring, warmup int64, res *stats.Stream, seed uint64) *loopState {
	st := &loopState{
		speeds:    w.speeds,
		fr:        frand.New(seed, 0x5bd1e995),
		res:       res,
		warmup:    warmup,
		nextChurn: math.Inf(1),
	}
	st.std = rand.New(st.fr)
	st.servers = make([]server, p.N)
	slab := make([]job, p.N*serverRingInit)
	for i := range st.servers {
		st.servers[i].ring = slab[i*serverRingInit : (i+1)*serverRingInit : (i+1)*serverRingInit]
	}
	st.qlen = make([]int32, p.N)
	st.trk = newTourTracker(p.N)
	st.unit = true
	for _, sp := range w.speeds {
		if sp != 1 {
			st.unit = false
			break
		}
	}
	if p.N >= minindex.Threshold {
		// Sub-linear dispatch: global-argmin policies get a maintained
		// min-index; below the threshold (and for O(d) policies) the
		// reference scan wins. Selection changes the rng draw sequence,
		// not the policy's law — results stay seed-deterministic.
		switch w.policy.(type) {
		case workload.JSQ:
			st.lenTree = minindex.NewSeq(p.N)
		case workload.LWL:
			st.workTree = minindex.NewSeq(p.N)
		}
	}
	if len(w.churn) > 0 {
		st.armChurn(w.churn)
	}
	return st
}

// concretePicker resolves a built-in policy to its concrete picker —
// tree variants when newLoopState built the index — and returns nil for
// a user-supplied policy.
func (st *loopState) concretePicker(pol workload.Policy) picker {
	n := len(st.qlen)
	switch pol := pol.(type) {
	case workload.SQD:
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		return &sqdPick{d: pol.D, perm: perm}
	case workload.JSQ:
		if st.lenTree != nil {
			return jsqTreePick{}
		}
		return jsqScanPick{}
	case workload.LWL:
		if st.workTree != nil {
			return lwlTreePick{}
		}
		return lwlScanPick{}
	case workload.JIQ:
		return jiqPick{}
	case workload.RoundRobin:
		return &rrPick{n: n}
	case workload.Random:
		return randPick{n: n}
	}
	return nil
}

// bindArr resolves the arrival law and forwards to the service-law
// resolution; together they pick the stenciled loop instantiation.
func bindArr(st *loopState, w wiring, pk picker) func(int64) {
	switch a := w.arrival.(type) {
	case workload.Poisson:
		return bindSvc(st, poissonArr{rate: w.rate}, w, pk)
	case workload.DeterministicArrivals:
		return bindSvc(st, constArr{gap: 1 / w.rate}, w, pk)
	case workload.ErlangArrivals:
		return bindSvc(st, erlangArr{k: a.K, phaseRate: float64(a.K) * w.rate}, w, pk)
	case workload.HyperExp:
		p1, l1, l2 := a.Phases(w.rate)
		return bindSvc(st, hyperArr{p: p1, l1: l1, l2: l2}, w, pk)
	}
	return bindSvc(st, st.adapterArr(w), w, pk)
}

func bindSvc[A arrSampler](st *loopState, arr A, w wiring, pk picker) func(int64) {
	switch s := w.service.(type) {
	case workload.Exponential:
		return bindLoop(st, arr, expSvc{}, pk)
	case workload.DeterministicService:
		return bindLoop(st, arr, detSvc{}, pk)
	case workload.ErlangService:
		return bindLoop(st, arr, erlangSvc{k: s.K, kf: float64(s.K)}, pk)
	case workload.BoundedPareto:
		return bindLoop(st, arr, paretoSvc{p: s}, pk)
	}
	return bindLoop(st, arr, ifaceSvc{svc: w.service, std: st.std}, pk)
}

func bindLoop[A arrSampler, S svcSampler](st *loopState, arr A, svc S, pk picker) func(int64) {
	return func(jobs int64) { runTyped(st, arr, svc, pk, jobs) }
}

// runTyped is the event loop, generic over the (arrival, service) sampler
// pair. Go stencils it per GC shape, so each per-event draw is an indirect
// call through the shape's dictionary into a concrete sampler that draws
// from frand directly (see samplers.go); the picker is held as an
// interface, one indirect call per arrival. Three event sources race on
// model time — the churn schedule, the next arrival, the earliest
// completion — with churn ahead of an arrival ahead of a completion at
// equal instants.
//
// An arrival draws the next interarrival, then the job's service
// requirement, then the pick: every policy sees the work it is placing
// (LWL reads it, the others ignore it), and the requirement travels with
// the job in its server's ring until it completes, as in internal/lb.
//
// Churn runs are pinned by TestChurnGoldens, and the concrete samplers
// and pickers against the workload interfaces by
// TestTypedLoopMatchesInterfaceLoop.
//
//finitelb:hotpath
func runTyped[A arrSampler, S svcSampler](st *loopState, arr A, svc S, pk picker, jobs int64) {
	servers := st.servers
	qlen := st.qlen
	fr := st.fr
	trk := st.trk
	res := st.res
	unit := st.unit
	lenTree, workTree := st.lenTree, st.workTree
	tr := st.tr
	if !st.started {
		st.nextArrival = arr.next(fr)
		st.started = true
	}
	nextArrival := st.nextArrival
	departed := st.departed
	measured := st.measured
	maxQ := st.maxQueue
	nextChurn := st.nextChurn

	// The (min, argmin) pair is live across iterations and re-read only
	// after a tracker update: arrivals to busy servers — the bulk of all
	// events — leave the tracker untouched.
	minC, minI := trk.min()
	for measured < jobs {
		if nextChurn <= minC && nextChurn <= nextArrival {
			// Membership changes are control-plane-rare: the hook works on
			// st, and the loop re-reads what it may have changed.
			st.maxQueue = maxQ
			applyChurn(st, pk)
			nextChurn, maxQ, unit = st.nextChurn, st.maxQueue, st.unit
			minC, minI = trk.min()
			continue
		}
		if nextArrival <= minC {
			now := nextArrival
			nextArrival = now + arr.next(fr)
			req := svc.sample(fr)
			st.now = now
			best := pk.pick(st)
			sv := &servers[best]
			sv.push(job{now, req})
			l := qlen[best] + 1
			qlen[best] = l
			if l == 1 {
				x := req
				if !unit {
					x = st.serviceTime(best, x)
				}
				trk.update(best, now+x)
				minC, minI = trk.min()
			} else {
				sv.pending += req
			}
			if lenTree != nil {
				lenTree.Update(best, float64(l))
			}
			if workTree != nil {
				st.noteWork(best)
			}
			if int(l) > maxQ {
				maxQ = int(l)
			}
			if tr != nil {
				tr.onArrival(now, best, int(l-1), lastTies(pk))
			}
			continue
		}
		sv := &servers[minI]
		now := minC
		done, next := sv.pop()
		l := qlen[minI] - 1
		qlen[minI] = l
		c := math.Inf(1)
		if l > 0 {
			sv.pending -= next.req
			x := next.req
			if !unit {
				x = st.serviceTime(minI, x)
			}
			c = now + x
		}
		trk.update(minI, c)
		if lenTree != nil {
			st.noteLen(minI, l)
		}
		if workTree != nil {
			st.noteWork(minI)
		}
		if tr != nil {
			tr.onDeparture(now, minI)
		}
		minC, minI = trk.min()
		departed++
		if departed > st.warmup {
			st.buf[st.bufn] = now - done.arrival
			st.bufn++
			if st.bufn == len(st.buf) {
				res.AddBatch(st.buf[:])
				st.bufn = 0
			}
			measured++
		}
	}

	st.nextArrival = nextArrival
	st.departed = departed
	st.measured = measured
	st.maxQueue = maxQ
	st.flush()
	res.ObserveQueue(maxQ)
}
