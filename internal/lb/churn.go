package lb

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"finitelb/internal/workload"
)

// This file is the farm's failure domain: membership changes
// (Leave/Crash/Join), fault injectors (SetSlow/Stall/PauseDispatch),
// the redelivery path that keeps every accepted job accounted for, and
// RunChurn, which replays a resolved churn schedule
// (internal/workload's churn: spec through internal/chaos.Resolve)
// against the live farm.
//
// Membership is a published snapshot plus a flag, not structural: the
// farm keeps its N goroutines, channels and table slots for life. The
// workload.Live snapshot is the farm the pickers see — a down server
// has no rank in it, so no policy can pick one — and the slot's down
// flag tells the server's own goroutine to requeue everything it
// dequeues. That keeps every membership transition a handful of atomic
// stores with no channel close/reopen races, at the price of an idle
// goroutine per down server (blocked on its empty channel, costing
// nothing).

// Leave removes server i from the farm gracefully: no new work routes
// to it, its in-service job completes, and everything still queued is
// redelivered to live servers through the retry path (each redelivery
// consumes the job's RetryBudget). Errors by workload.Live's rulebook:
// i is already down, or is the last live server — the farm never runs
// empty.
func (lb *LB) Leave(i int) error { return lb.takeDown(i, false) }

// Crash fails server i abruptly: like Leave, but the in-service job is
// interrupted mid-service (its completed work is lost) and redelivered
// along with the queue. Every service sleep polls the crash flag (see
// sleepService), so a crash lands within 2×crashPoll plus the sleeper
// margin regardless of job length, on any farm.
func (lb *LB) Crash(i int) error { return lb.takeDown(i, true) }

func (lb *LB) takeDown(i int, crash bool) error {
	lb.memberMu.Lock()
	defer lb.memberMu.Unlock()
	live, err := lb.live.Load().Without(i)
	if err != nil {
		return fmt.Errorf("lb: %w", err)
	}
	// Snapshot first, flag second: see LB.live.
	lb.live.Store(live)
	s := &lb.slots[i]
	s.down.Store(true)
	if crash {
		s.crashed.Store(true)
	}
	lb.rekey(i)
	return nil
}

// rekey refreshes server i in the min-indexes after its down flag moved
// (the key callbacks read it: a down server keys at the ceiling).
func (lb *LB) rekey(i int) {
	if lb.lenTree != nil {
		lb.lenTree.Update(i)
	}
	if lb.workTree != nil {
		lb.workTree.Update(i)
	}
}

// Join returns a down server to the farm (restore after Leave/Crash):
// flags clear, the min-indexes re-key, and an empty queue reports idle
// to JIQ. Errors if the server is already up.
func (lb *LB) Join(i int) error {
	lb.memberMu.Lock()
	defer lb.memberMu.Unlock()
	live, err := lb.live.Load().With(i)
	if err != nil {
		return fmt.Errorf("lb: %w", err)
	}
	s := &lb.slots[i]
	s.crashed.Store(false)
	// Flag first, snapshot second: see LB.live.
	s.down.Store(false)
	lb.live.Store(live)
	lb.rekey(i)
	if lb.jiq && s.qlen.Load() == 0 && s.onStack.CompareAndSwap(false, true) {
		lb.idle.push(i)
	}
	return nil
}

// Alive returns the number of live (not down) servers.
func (lb *LB) Alive() int { return lb.live.Load().Alive() }

// SetSlow degrades server i: service durations multiply by factor
// until cleared. factor 1 clears the degradation; factor < 1 is a
// speed-up (allowed — useful for asymmetry experiments). Applies to
// services that start after the call.
func (lb *LB) SetSlow(i int, factor float64) error {
	if i < 0 || i >= lb.n {
		return fmt.Errorf("lb: server %d out of range [0, %d)", i, lb.n)
	}
	if !(factor > 0) {
		return fmt.Errorf("lb: slow factor %v, need > 0", factor)
	}
	lb.memberMu.Lock()
	defer lb.memberMu.Unlock()
	if factor == 1 {
		lb.slots[i].slowBits.Store(0)
		return nil
	}
	lb.slots[i].slowBits.Store(math.Float64bits(factor))
	return nil
}

// Stall freezes server i for d: service starts are pushed past the
// stall horizon (the in-service job, if any, finishes first — the
// freeze takes effect between jobs). The queue stays intact and keeps
// accepting work.
func (lb *LB) Stall(i int, d time.Duration) error {
	if i < 0 || i >= lb.n {
		return fmt.Errorf("lb: server %d out of range [0, %d)", i, lb.n)
	}
	if d <= 0 {
		return fmt.Errorf("lb: stall duration %v, need > 0", d)
	}
	lb.memberMu.Lock()
	defer lb.memberMu.Unlock()
	lb.slots[i].stallUntil.Store(time.Now().Add(d).UnixNano())
	return nil
}

// PauseDispatch suspends admission: Dispatch/Do/loadgen submissions
// block until ResumeDispatch (or error with ErrClosed if the farm
// shuts down first). Idempotent — pausing a paused farm is a no-op.
func (lb *LB) PauseDispatch() {
	ch := make(chan struct{})
	lb.pause.CompareAndSwap(nil, &ch)
}

// ResumeDispatch releases a dispatcher pause (no-op when not paused).
func (lb *LB) ResumeDispatch() {
	if p := lb.pause.Swap(nil); p != nil {
		close(*p)
	}
}

// pauseWait blocks a submitter while the dispatcher is paused. Off the
// hot path by construction: submitters call it only after observing a
// non-nil pause gate.
func (lb *LB) pauseWait(p *chan struct{}) error {
	select {
	case <-*p:
		return nil
	case <-lb.stopCh:
		return ErrClosed
	}
}

// crashPoll is the nap between crash-flag polls of a service sleep
// (sleepService): a crash waits at most 2×crashPoll plus the sleeper
// margin for the in-service job to notice it, and only jobs longer than
// that pay any extra wake-ups.
const crashPoll = 2 * time.Millisecond

// scheduleRetry routes a job orphaned by a crash or leave (or bounced
// off a full queue on redelivery) back toward a live server: budget
// check, jittered exponential backoff, then redispatch. Runs on server
// goroutines and backoff timers — never on the dispatch hot path.
func (lb *LB) scheduleRetry(j job, now time.Time) {
	lb.rec.requeued.Add(1)
	if j.trace >= 0 {
		lb.tr.Retried(j.trace)
	}
	j.attempts++
	if lb.cfg.RetryBudget < 0 || int(j.attempts) > lb.cfg.RetryBudget {
		lb.finalizeDrop(j, now, false)
		return
	}
	d := lb.backoffFor(j.attempts)
	if d <= 0 || lb.closed.Load() {
		// No backoff configured, or shutting down: redeliver inline (the
		// drain must not wait out backoff timers, and spawning goroutines
		// after Shutdown's retryWG barrier would race it).
		lb.redispatch(j, false)
		return
	}
	lb.retryWG.Add(1)
	go func() {
		defer lb.retryWG.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-lb.stopCh:
			// Shutdown flushes the remaining backoff: redeliver now so the
			// drain completes the job instead of waiting for the timer.
		}
		lb.redispatch(j, false)
	}()
}

// backoffFor returns the jittered exponential backoff before redelivery
// attempt k (1-based): base × 2^(k−1), ±50% multiplicative jitter,
// capped at 64× the base. Zero base means immediate redelivery.
func (lb *LB) backoffFor(k int32) time.Duration {
	base := lb.cfg.RetryBackoff
	if base <= 0 {
		return 0
	}
	d := base << min(k-1, 6)
	if d > base<<6 {
		d = base << 6
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// redispatch re-admits an already-accepted job copy. hedge marks a
// speculative duplicate: on any failure it is discarded silently (the
// original still holds the claim race), whereas a redelivery failure
// re-enters scheduleRetry until the budget drops the job. The
// enter bracket against chClosed means a redelivery never sends on a
// channel Shutdown has closed.
func (lb *LB) redispatch(j job, hedge bool) {
	if lb.enter(false) != nil {
		if !hedge {
			lb.finalizeDrop(j, time.Now(), false)
		}
		return
	}
	defer lb.inflight.Done()
	d := lb.dispatcherAt(time.Now())
	target, err := lb.admit(d, &j)
	lb.dispatchers.Put(d)
	if err != nil {
		if hedge {
			return
		}
		// Full queue: try again (consuming budget) — it may drain before
		// the budget runs out.
		lb.scheduleRetry(j, time.Now())
		return
	}
	lb.rec.retried.Add(1)
	if j.trace >= 0 {
		lb.tr.Enqueued(j.trace, lb.rel(time.Now()))
	}
	lb.servers[target].ch <- j
}

// finalizeDrop resolves a job that leaves the system unserved after
// acceptance: deadline expired, redelivery budget exhausted, or a
// redelivery overtaken by shutdown. owned says the caller already won
// the hedge claim; otherwise the drop must win the 0→2 transition — if
// another copy claimed service, the job is someone else's to finish
// and this copy vanishes without counting.
func (lb *LB) finalizeDrop(j job, at time.Time, owned bool) {
	if j.claim != nil && !owned && !j.claim.CompareAndSwap(0, 2) {
		return
	}
	lb.rec.dropped.Add(1)
	if j.trace >= 0 {
		lb.tr.Drop(j.trace, lb.rel(at))
	}
	if j.counted != nil {
		j.counted.Add(1)
	}
	if j.done != nil {
		j.done <- Done{Server: -1, Sojourn: at.Sub(j.arrival), Dropped: true}
	}
}

// armHedge attaches a hedge claim to j and schedules the speculative
// duplicate: if nothing has claimed the job Hedge after dispatch, a
// copy is routed to another server and the first copy to reach service
// start wins the claim. Allocates (the shared claim word and a timer)
// — deliberately outside the hotpath-annotated dispatch functions.
func (lb *LB) armHedge(j *job, target int) {
	claim := new(atomic.Int32)
	j.claim = claim
	dup := *j
	time.AfterFunc(lb.cfg.Hedge, func() {
		if claim.Load() != 0 || lb.closed.Load() {
			return
		}
		lb.rec.requeued.Add(1)
		if dup.trace >= 0 {
			lb.tr.Retried(dup.trace)
		}
		dup.attempts++
		lb.redispatch(dup, true)
	})
}

// RunChurn replays a resolved churn schedule against the live farm:
// event times are in mean service times, mapped onto the wall clock
// from the moment of the call (t=0 is now). It blocks until the
// schedule completes, the farm shuts down, or an event fails to apply.
// Events must carry explicit servers — resolve a parsed spec with
// internal/chaos.Resolve first, which also validates the schedule
// against farm membership.
func (lb *LB) RunChurn(events []workload.ChurnEvent) error {
	start := time.Now()
	for _, ev := range events {
		at := start.Add(durationNs(ev.T * lb.meanServiceNs))
		if wait := time.Until(at); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-lb.stopCh:
				t.Stop()
				return ErrClosed
			}
		}
		if err := lb.applyChurn(ev); err != nil {
			return err
		}
	}
	return nil
}

func (lb *LB) applyChurn(ev workload.ChurnEvent) error {
	switch ev.Kind {
	case workload.ChurnCrash:
		return lb.Crash(ev.Server)
	case workload.ChurnLeave:
		return lb.Leave(ev.Server)
	case workload.ChurnRestore:
		return lb.Join(ev.Server)
	case workload.ChurnSlow:
		return lb.SetSlow(ev.Server, ev.Factor)
	case workload.ChurnStall:
		return lb.Stall(ev.Server, durationNs(ev.Dur*lb.meanServiceNs))
	case workload.ChurnPause:
		lb.PauseDispatch()
		return nil
	case workload.ChurnResume:
		lb.ResumeDispatch()
		return nil
	}
	return fmt.Errorf("lb: unknown churn event %v", ev)
}
