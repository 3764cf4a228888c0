package sim

import (
	"fmt"
	"math"

	"finitelb/internal/workload"
)

// This file is the simulator's side of the failure domain: churn
// schedule validation and the event-loop hooks that apply membership
// changes on model time. The semantics deliberately mirror internal/lb
// — crash loses in-service progress and redistributes the queue, leave
// drains gracefully, and while servers are down every policy is its
// ordinary picker on the farm of the survivors (workload.Live) — so a
// live chaos scenario replays here seed-deterministically (see
// Options.Churn).

// validateChurn checks a schedule against the farm size and returns a
// defensive copy, nil for no churn. Every event needs an explicit
// server (internal/chaos.Resolve assigns them deterministically);
// stall/pause/resume have wall-clock semantics with no model-time
// analogue and are rejected. Times must be finite and ≥ 0 and slow
// factors finite and > 0 — the tracker's key order needs nonnegative
// completion times, a server slowed by +Inf never completes, and an event
// at +Inf never fires while blocking every later one. Membership is
// walked through workload.Live's rulebook so a run can never go all-down
// or double-fault.
func validateChurn(c *workload.Churn, n int) ([]workload.ChurnEvent, error) {
	if c == nil || len(c.Events) == 0 {
		return nil, nil
	}
	evs := make([]workload.ChurnEvent, len(c.Events))
	copy(evs, c.Events)
	live := workload.NewLive(n)
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
		var err error
		switch ev.Kind {
		case workload.ChurnSlow:
			if !(ev.Factor > 0) || math.IsInf(ev.Factor, 1) {
				return nil, fmt.Errorf("sim: churn event %v: factor %v is not finite and > 0 (grammar: slow@t=T@f=FACTOR with FACTOR a finite service-time multiplier > 0)", ev, ev.Factor)
			}
		case workload.ChurnCrash, workload.ChurnLeave:
			live, err = live.Without(ev.Server)
		case workload.ChurnRestore:
			live, err = live.With(ev.Server)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: churn event %v: %w", ev, err)
		}
	}
	return evs, nil
}

// armChurn installs a validated, non-empty schedule on a fresh stream.
func (st *loopState) armChurn(evs []workload.ChurnEvent) {
	n := len(st.qlen)
	st.churn = evs
	st.nextChurn = evs[0].T
	st.live = workload.NewLive(n)
	st.slow = make([]float64, n)
	for i := range st.slow {
		st.slow[i] = 1
	}
}

// setLive installs the membership snapshot a churn event produced. The
// schedule passed validateChurn, so a refusal here is a bug.
func (st *loopState) setLive(live *workload.Live, err error) {
	if err != nil {
		panic("sim: churn schedule escaped validation: " + err.Error())
	}
	st.live = live
}

// note re-keys server i in whichever min-index is active after a
// membership change or a redistributed push. The indexes stay keyed by
// server id over the whole farm; a down server's key is +Inf, so the
// argmin is always a live server and the view reports its rank.
func (st *loopState) note(i int) {
	down := st.isDown(i)
	if st.lenTree != nil {
		key := float64(st.qlen[i])
		if down {
			key = math.Inf(1)
		}
		st.lenTree.Update(i, key)
	}
	if st.workTree != nil {
		if down {
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
		st.setLive(st.live.With(i))
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
	st.setLive(st.live.Without(i))
	st.note(i)

	// Redistribute the orphans through the dispatch policy — already the
	// picker of the smaller farm — at the event instant, arrival stamps
	// preserved: the lost time surfaces in the measured sojourns, exactly
	// as live redelivery does.
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
