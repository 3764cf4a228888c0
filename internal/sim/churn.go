package sim

import (
	"fmt"
	"math"

	"finitelb/internal/workload"
)

// This file is the simulator's side of the failure domain: churn
// schedule validation and the event-loop hooks that apply membership
// changes on model time. The semantics deliberately mirror
// internal/lb's flag-based membership — crash loses in-service
// progress and redistributes the queue, leave drains gracefully, SQ(d)
// samples among survivors while servers are down — so a live chaos
// scenario replays here seed-deterministically (see Options.Churn).

// validateChurn checks a schedule against the farm size and returns a
// defensive copy, nil for no churn. Every event needs an explicit
// server (internal/chaos.Resolve assigns them deterministically);
// stall/pause/resume have wall-clock semantics with no model-time
// analogue and are rejected. Times must be finite and ≥ 0 and slow
// factors finite and > 0 — the tracker's key order needs nonnegative
// completion times, a server slowed by +Inf never completes, and an event
// at +Inf never fires while blocking every later one. Membership is
// tracked through the schedule so a run can never go all-down or
// double-fault.
func validateChurn(c *workload.Churn, n int) ([]workload.ChurnEvent, error) {
	if c == nil || len(c.Events) == 0 {
		return nil, nil
	}
	evs := make([]workload.ChurnEvent, len(c.Events))
	copy(evs, c.Events)
	down := make([]bool, n)
	alive := n
	last := math.Inf(-1)
	for k, ev := range evs {
		if !(ev.T >= 0) || math.IsInf(ev.T, 1) {
			return nil, fmt.Errorf("sim: churn event #%d (%v): time %v is not finite and ≥ 0 (grammar: KIND@t=T with T a finite time ≥ 0 in mean service times)", k, ev, ev.T)
		}
		if ev.T < last {
			return nil, fmt.Errorf("sim: churn event #%d (%v) is out of time order", k, ev)
		}
		last = ev.T
		switch ev.Kind {
		case workload.ChurnStall, workload.ChurnPause, workload.ChurnResume:
			return nil, fmt.Errorf("sim: churn event %v is live-only (wall-clock semantics); the simulator rejects it", ev)
		}
		if ev.Server < 0 {
			return nil, fmt.Errorf("sim: churn event %v has no server; resolve the schedule with internal/chaos.Resolve first", ev)
		}
		if ev.Server >= n {
			return nil, fmt.Errorf("sim: churn event %v targets server %d, farm has %d", ev, ev.Server, n)
		}
		switch ev.Kind {
		case workload.ChurnSlow:
			if !(ev.Factor > 0) || math.IsInf(ev.Factor, 1) {
				return nil, fmt.Errorf("sim: churn event %v: factor %v is not finite and > 0 (grammar: slow@t=T@f=FACTOR with FACTOR a finite service-time multiplier > 0)", ev, ev.Factor)
			}
		case workload.ChurnCrash, workload.ChurnLeave:
			if down[ev.Server] {
				return nil, fmt.Errorf("sim: churn event %v targets a server that is already down", ev)
			}
			if alive == 1 {
				return nil, fmt.Errorf("sim: churn event %v would take down the last live server", ev)
			}
			down[ev.Server] = true
			alive--
		case workload.ChurnRestore:
			if !down[ev.Server] {
				return nil, fmt.Errorf("sim: churn event %v restores a server that is already up", ev)
			}
			down[ev.Server] = false
			alive++
		}
	}
	return evs, nil
}

// armChurn installs a validated, non-empty schedule on a fresh stream.
func (st *loopState) armChurn(evs []workload.ChurnEvent) {
	n := len(st.qlen)
	st.churn = evs
	st.nextChurn = evs[0].T
	st.down = make([]bool, n)
	st.slow = make([]float64, n)
	for i := range st.slow {
		st.slow[i] = 1
	}
	st.live = make([]int, 0, n)
	st.rebuildLive()
}

// rebuildLive regenerates the compact live-server list after a
// membership change.
func (st *loopState) rebuildLive() {
	st.live = st.live[:0]
	for i, d := range st.down {
		if !d {
			st.live = append(st.live, i)
		}
	}
}

// nextAlive probes deterministically for the first live server after
// from — the backstop for policies whose pick doesn't read queue
// lengths (round-robin, random) and so can land on a down server
// despite the masked view.
func (st *loopState) nextAlive(from int) int {
	n := len(st.down)
	for k := 1; k <= n; k++ {
		if i := (from + k) % n; !st.down[i] {
			return i
		}
	}
	return from // unreachable: validation keeps ≥ 1 server live
}

// pickSQDLive is the degraded-mode SQ(d) pick, mirroring
// internal/lb.(*LB).pickSQDLive: d distinct samples by partial
// Fisher–Yates over the live-server list, least queue wins with
// uniform tie-breaking. Sampling from the survivors (rather than all N
// with dead entries masked) is what keeps SQ(d)'s law — and the QBD
// bracket solved at (alive, ρ·N/alive) — intact through churn.
//
//finitelb:hotpath
func (st *loopState) pickSQDLive(d int) int {
	live := st.live
	m := len(live)
	if d > m {
		d = m
	}
	best, bestLen, ties := -1, int32(math.MaxInt32), 0
	for k := 0; k < d; k++ {
		j := k + st.fr.IntN(m-k)
		live[k], live[j] = live[j], live[k]
		s := live[k]
		switch l := st.qlen[s]; {
		case l < bestLen:
			best, bestLen, ties = s, l, 1
		case l == bestLen:
			ties++
			if st.fr.IntN(ties) == 0 {
				best = s
			}
		}
	}
	return best
}

// churnPick is the picker of a churn run. While every server is up it is
// the policy's own picker with the exact churn-free draw sequence; on a
// degraded farm SQ(d) samples among the survivors and every other policy
// picks over the masked farm view, with the next-alive probe behind it.
type churnPick struct {
	base picker // SQ(d)'s concrete picker; the farm-view adapter otherwise
	sqdD int    // the SQ(d) policy's d, 0 for every other policy
}

//finitelb:hotpath
func (c *churnPick) pick(st *loopState) int {
	if st.downCnt == 0 {
		return c.base.pick(st)
	}
	if c.sqdD > 0 {
		return st.pickSQDLive(c.sqdD)
	}
	best := c.base.pick(st)
	if st.down[best] {
		best = st.nextAlive(best)
	}
	return best
}

// note re-keys server i in whichever min-index is active after a
// membership change or a redistributed push; a down server is masked out
// at +Inf.
func (st *loopState) note(i int) {
	if st.lenTree != nil {
		key := float64(st.qlen[i])
		if st.down[i] {
			key = math.Inf(1)
		}
		st.lenTree.Update(i, key)
	}
	if st.workTree != nil {
		if st.down[i] {
			st.workTree.Update(i, math.Inf(1))
		} else {
			st.noteWork(i)
		}
	}
}

// applyChurn fires the head of the schedule at its model time.
// Allocation here is fine — churn events are control-plane-rare next to
// the event loop's per-arrival work.
func applyChurn[S svcSampler](st *loopState, svc S, pk picker) {
	ev := st.churn[0]
	st.churn = st.churn[1:]
	st.nextChurn = math.Inf(1)
	if len(st.churn) > 0 {
		st.nextChurn = st.churn[0].T
	}

	i := ev.Server
	switch ev.Kind {
	case workload.ChurnSlow:
		st.slow[i] = ev.Factor
		st.unit = false
		return
	case workload.ChurnRestore:
		st.down[i] = false
		st.downCnt--
		st.rebuildLive()
		st.note(i)
		return
	}

	// Crash or leave: every job on the server is orphaned, except that a
	// graceful leave lets the in-service job (the ring's head) complete in
	// place — its tracker entry is already correct.
	sv := &st.servers[i]
	keep := uint32(0)
	if ev.Kind == workload.ChurnLeave && sv.length() > 0 {
		keep = 1
	}
	type orphan struct{ arrived, req float64 }
	orphans := make([]orphan, 0, sv.length())
	for j := sv.head + keep; j != sv.tail; j++ {
		idx := j & uint32(len(sv.arrivals)-1)
		o := orphan{arrived: sv.arrivals[idx]}
		if sv.work != nil {
			o.req = sv.work[idx]
		}
		orphans = append(orphans, o)
	}
	sv.tail = sv.head + keep
	sv.pending = 0
	st.qlen[i] = int32(keep)
	if keep == 0 {
		// Crash: in-service progress is lost; a re-executed job draws a
		// fresh requirement at its new service start (under a work-aware
		// policy the original requirement travels with the job).
		sv.completion = math.Inf(1)
		st.trk.update(i, math.Inf(1))
	}
	st.down[i] = true
	st.downCnt++
	st.rebuildLive()
	st.note(i)

	// Redistribute the orphans through the dispatch policy at the event
	// instant, arrival stamps preserved — the lost time surfaces in the
	// measured sojourns, exactly as live redelivery does.
	st.now = ev.T
	for _, o := range orphans {
		best := pk.pick(st)
		tsv := &st.servers[best]
		l := st.qlen[best] + 1
		st.qlen[best] = l
		if st.workAware {
			tsv.pushWork(o.arrived, o.req)
			if l == 1 {
				tsv.completion = ev.T + st.serviceTime(best, o.req)
				st.trk.update(best, tsv.completion)
			} else {
				tsv.pending += o.req
			}
		} else {
			tsv.push(o.arrived)
			if l == 1 {
				st.trk.update(best, ev.T+st.serviceTime(best, svc.sample(st.fr)))
			}
		}
		st.note(best)
		if int(l) > st.maxQueue {
			st.maxQueue = int(l)
		}
	}
}
