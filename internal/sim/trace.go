package sim

import "finitelb/internal/trace"

// simTracer adapts the event loop to the flight recorder
// (internal/trace). In model time the dispatch pipeline is
// instantaneous — a job arrives, is picked, and lands in its queue at
// the same instant — so Arrival = Picked = Enqueued = the arrival
// stamp, and the interesting decomposition is queue wait (service
// start − arrival) vs service. Service starts are not events of their
// own in the simulator: job k at server s enters service exactly at
// the departure that makes it the head of s's queue, so the adapter
// counts pushes and pops per server and matches sampled jobs to the
// departure ranks that start and complete them.
//
// The adapter calls Recorder.Start for every arrival (sampled or not),
// so Span.Seq is the job's global arrival rank; everything else runs
// only for sampled jobs. Nothing here consumes a draw from the
// simulation rng — the trace-off and trace-on runs are draw-for-draw
// identical, which TestTraceOffBitIdentical pins.
type simTracer struct {
	rec    *trace.Recorder
	pushed []uint64 // jobs ever enqueued at server i (1-based ranks)
	popped []uint64 // departures at server i
	ents   []traceEnt
	n      int
}

// traceEnt is one sampled in-flight job: its handle, its server, and
// its enqueue rank there (the k-th job ever pushed at that server
// completes at the server's k-th departure, and enters service at the
// (k−1)-th).
type traceEnt struct {
	h      trace.Handle
	server int32
	k      uint64
}

func newSimTracer(rec *trace.Recorder, n int) *simTracer {
	return &simTracer{
		rec:    rec,
		pushed: make([]uint64, n),
		popped: make([]uint64, n),
		ents:   make([]traceEnt, rec.PendingCap()),
	}
}

// onArrival books one arrival routed to server with qlenBefore jobs
// already there (ties as reported by the picker, −1 if it doesn't).
//
//finitelb:hotpath
func (t *simTracer) onArrival(now float64, server, qlenBefore, ties int) {
	k := t.pushed[server] + 1
	t.pushed[server] = k
	h := t.rec.Start(now)
	if h < 0 {
		return
	}
	t.rec.Picked(h, now, server, qlenBefore, ties)
	t.rec.Enqueued(h, now)
	if qlenBefore == 0 {
		// Empty queue: service begins at the arrival instant.
		t.rec.Started(h, now)
	}
	if t.n == len(t.ents) {
		t.rec.Abort(h)
		return
	}
	t.ents[t.n] = traceEnt{h: h, server: int32(server), k: k}
	t.n++
}

// onDeparture books server's next departure at time now: the sampled
// job (if any) at that departure rank completes, and the sampled job
// (if any) at the following rank enters service.
//
//finitelb:hotpath
func (t *simTracer) onDeparture(now float64, server int) {
	c := t.popped[server] + 1
	t.popped[server] = c
	s32 := int32(server)
	for i := 0; i < t.n; i++ {
		e := t.ents[i]
		if e.server != s32 {
			continue
		}
		if e.k == c {
			t.rec.Done(e.h, now)
			t.n--
			t.ents[i] = t.ents[t.n]
			i--
		} else if e.k == c+1 {
			t.rec.Started(e.h, now)
		}
	}
}
