package lb

import "sync/atomic"

// slot is one server's entry in the sharded dispatch-state table. Each
// slot is padded to its own pair of cache lines so that the per-dispatch
// queue-length increment on one server never invalidates the line a
// concurrent SQ(d) sample of a *different* server is reading — the table
// is the lock-free replacement for a mutex-guarded length array, keeping
// an SQ(d) pick at exactly d atomic loads with no shared write hotspot.
type slot struct {
	// pending is the outstanding not-yet-started work at this server in
	// work-nanoseconds (requirement × MeanService, speed-independent),
	// maintained only under a work-aware policy (LWL): the dispatcher adds
	// a job's work when it enqueues, the server subtracts it when the job
	// enters service.
	pending atomic.Int64
	// deadline is the absolute completion time (UnixNano) of the job in
	// service, 0 when none; maintained only under a work-aware policy. The
	// LWL view adds the remainder deadline−now to pending.
	deadline atomic.Int64
	// outwork is the server's outstanding nominal work in work-nanoseconds
	// — every accepted job's requirement from dispatch until *completion*
	// (unlike pending, which a job leaves at service start). It is the
	// authoritative key behind the LWL min-index and is maintained only
	// when that index is active (policy LWL at N ≥ minindex.Threshold);
	// the scan path keeps reading pending + deadline.
	outwork atomic.Int64
	// stallUntil is the instant (UnixNano) until which the server is
	// frozen by a fault injection: service starts are pushed past it.
	// 0 = not stalled.
	stallUntil atomic.Int64
	// slowBits is the float64 bit pattern of the server's
	// speed-degradation factor (service durations multiply by it);
	// 0 = no degradation.
	slowBits atomic.Uint64
	// qlen is the queue length including the job in service — the value
	// behind the workload.Queues view every picker samples. The dispatcher
	// increments it to reserve a queue position (rolling back on a full
	// queue), the server decrements it at completion, so it can
	// transiently overshoot the true length by an in-flight reservation
	// but never undercounts.
	qlen atomic.Int32
	// onStack guards against double-pushing this server onto the JIQ idle
	// stack: only a false→true transition pushes.
	onStack atomic.Bool
	// down marks the server out of the farm (Leave/Crash): pickers route
	// around it and its goroutine requeues everything it dequeues.
	down atomic.Bool
	// crashed additionally interrupts the in-service job (every service
	// sleep polls it); cleared on Join.
	crashed atomic.Bool

	_ [128 - 8 - 8 - 8 - 8 - 8 - 4 - 1 - 1 - 1]byte
}

// table is the farm's sharded atomic state, one padded slot per server.
type table []slot

func newTable(n int) table { return make(table, n) }
