package lb

import (
	"math"
	"time"
)

// server is one backend: a goroutine draining its bounded FIFO channel,
// rendering each job's service requirement in real time through the
// calibrated sleeper, and booking the completion. All cross-goroutine
// state lives in the sharded table slot; the goroutine itself holds
// nothing another goroutine reads.
type server struct {
	id    int
	speed float64
	ch    chan job
}

func (s *server) run(lb *LB) {
	defer lb.srvWG.Done()
	slot := &lb.slots[s.id]
	// busyUntil is the server's work clock: the ideal completion instant
	// of its previous job. Each job's deadline is computed from
	// max(arrival, busyUntil) — the ideal FIFO schedule — rather than
	// from the instant the goroutine got around to observing the queue.
	// Host scheduling noise (timer overshoot, vCPU steal) therefore
	// delays only the *observation* of each completion by its own jitter;
	// it never compounds through the queue into inflated service times,
	// which on contended hosts would silently push the effective
	// utilization past saturation.
	var busyUntil time.Time
	for j := range s.ch {
		busyUntil = s.serve(lb, slot, busyUntil, j)
	}
}

// serve renders one job and books its completion, returning the advanced
// work clock. On a down server it instead redelivers the job (the
// down-drain); it also resolves the job's hedge claim, deadline, and any
// injected stall/slowdown, and aborts into the retry path when a crash
// interrupts the service sleep.
func (s *server) serve(lb *LB, slot *slot, busyUntil time.Time, j job) time.Time {
	if slot.down.Load() {
		// Down-drain: a departed/crashed server requeues everything it
		// dequeues. The job never started, so the full reservation
		// unwinds; no idle report from a down server.
		s.dequeue(lb, slot, &j, false, false)
		lb.scheduleRetry(j, time.Now())
		return busyUntil
	}
	if j.claim != nil && !j.claim.CompareAndSwap(0, 1) {
		// Another copy of this hedged job won the service race (or the
		// job was dropped): release the reservation and vanish — the
		// winner owns the record, the counted bump, and the done send.
		s.dequeue(lb, slot, &j, false, true)
		return busyUntil
	}
	start := j.arrival
	if busyUntil.After(start) {
		start = busyUntil
	}
	if st := slot.stallUntil.Load(); st != 0 {
		if t := time.Unix(0, st); t.After(start) {
			start = t
		} else {
			// Expired: clear, but never clobber a fresher stall (CAS).
			slot.stallUntil.CompareAndSwap(st, 0)
		}
	}
	if j.deadlineNs != 0 && start.UnixNano() > j.deadlineNs {
		// The deadline expires before service would begin on the ideal
		// schedule: drop instead of serving. The claim (if any) is
		// already owned, so the drop counts unconditionally.
		s.dequeue(lb, slot, &j, false, true)
		lb.finalizeDrop(j, time.Now(), true)
		return busyUntil
	}
	ns := j.work / s.speed * lb.meanServiceNs
	if f := slot.slowBits.Load(); f != 0 {
		ns *= math.Float64frombits(f)
	}
	dur := durationNs(ns)
	deadline := start.Add(dur)
	if j.trace >= 0 {
		// start is the work-clock (ideal-schedule) instant — it can
		// precede the Enqueued observation; see trace.Recorder.observe.
		lb.tr.Started(j.trace, lb.rel(start))
	}
	if lb.workAware {
		// The job leaves the queued-work ledger and becomes the
		// in-service remainder the LWL view reads from deadline.
		slot.pending.Add(-j.workNs)
		slot.deadline.Store(deadline.UnixNano())
	}
	completed := s.sleepService(lb, slot, deadline)
	if lb.workAware {
		slot.deadline.Store(0)
	}
	if !completed {
		// Crash interrupt: the partial service is lost. The job goes
		// back to unclaimed (a hedge copy may pick it up) and into the
		// retry path; pending already left the ledger at service start.
		s.dequeue(lb, slot, &j, true, false)
		if j.claim != nil {
			j.claim.Store(0)
		}
		lb.scheduleRetry(j, time.Now())
		return busyUntil
	}
	s.dequeue(lb, slot, &j, true, true)
	end := time.Now()
	lb.rec.record(s.id, end.Sub(j.arrival), end.Sub(start))
	if j.trace >= 0 {
		lb.tr.Done(j.trace, lb.rel(end))
	}
	if j.counted != nil {
		j.counted.Add(1)
	}
	if j.done != nil {
		j.done <- Done{Server: s.id, Sojourn: end.Sub(j.arrival), Service: dur}
	}
	return deadline
}

// dequeue unwinds a queue reservation for a job leaving this server,
// served or not — the reverse of admit. started says the job already
// left the pending ledger at service start; jiqPush lets a live server
// report idle if this drained its queue.
func (s *server) dequeue(lb *LB, slot *slot, j *job, started, jiqPush bool) {
	if lb.workAware && !started {
		slot.pending.Add(-j.workNs)
	}
	if slot.qlen.Add(-1) == 0 && jiqPush && lb.jiq && !slot.down.Load() {
		// Queue drained: report idle (push at most once — the flag
		// guards against a stale stack entry from a fallback dispatch).
		if slot.onStack.CompareAndSwap(false, true) {
			lb.idle.push(s.id)
		}
	}
	if lb.lenTree != nil {
		lb.lenTree.Update(s.id)
	}
	if lb.workTree != nil {
		// A served job's nominal work leaves the LWL index only here, at
		// completion, so the index keeps counting the in-service job.
		slot.outwork.Add(-j.workNs)
		lb.workTree.Update(s.id)
	}
}

// sleepService renders the service duration, returning false if a crash
// interrupted it. While the deadline is comfortably far (more than two
// polls plus the sleeper's learned overshoot margin) it naps in plain
// crashPoll steps, checking the crash flag between them — a nap has no
// deadline to hit, so it neither spins nor feeds the overshoot EWMA and
// cannot carry the server past its deadline. The final stretch is the
// one compensated sleep. A deadline already past (every job of a
// zero-work farm) costs one flag load and one clock read.
func (s *server) sleepService(lb *LB, slot *slot, deadline time.Time) bool {
	for {
		if slot.crashed.Load() {
			return false
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			return true
		}
		if rem <= 2*crashPoll+time.Duration(lb.sleep.comp.Load()) {
			break
		}
		time.Sleep(crashPoll)
	}
	lb.sleep.sleepUntil(deadline)
	return !slot.crashed.Load()
}
