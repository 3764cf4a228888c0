// Package workload makes the discrete-event simulator pluggable: arrival
// processes, service-time distributions, per-server speed factors, and
// dispatch policies are small interfaces the event loop in internal/sim
// draws from. The analytic side of the repository (the QBD bounds) covers
// exactly one configuration — Poisson arrivals, exponential unit-rate
// homogeneous servers, SQ(d) dispatch — and that configuration is this
// package's default. Every other combination opens a scenario the
// paper's bounds cannot reach; where a classical queueing formula exists
// (Pollaczek–Khinchine for M/G/1, the σ-root of Theorem 2 for GI/M/1) the
// tests in internal/sim use it as a correctness oracle, and the remaining
// combinations are validated by ordering properties (JSQ ≤ SQ(2) ≤ random
// at equal load).
//
// Configurations are plain values safe to share across goroutines; any
// per-stream mutable state (an SQ(d) sampling permutation, a round-robin
// cursor, a modulated arrival phase) lives in the Source/Picker instances
// created per simulation stream.
//
// All pieces are constructible from compact spec strings (see ParseArrival,
// ParseService, ParsePolicy, ParseSpeeds), which is how cmd/sweep flags and
// the public finitelb.SimOptions reach them.
package workload

import (
	"math/rand/v2"
)

// Arrival describes an arrival process. NewSource instantiates the
// per-stream state for an aggregate arrival rate (jobs per unit time);
// implementations must validate and report configuration errors here, so
// the hot path never checks.
type Arrival interface {
	NewSource(rate float64) (Source, error)
	// String renders the canonical spec (parseable by ParseArrival).
	String() string
}

// Source emits successive interarrival times of one stream. Sources are
// not safe for concurrent use; create one per stream.
type Source interface {
	Next(rng *rand.Rand) float64
}

// Service is a unit-mean service-time distribution. Implementations are
// immutable and draw i.i.d. samples, so one value serves all streams.
type Service interface {
	// Sample draws one service requirement (mean 1).
	Sample(rng *rand.Rand) float64
	// Moment2 returns E[S²], the ingredient of the Pollaczek–Khinchine
	// oracle; it is ≥ 1 for any unit-mean law.
	Moment2() float64
	// Validate reports configuration errors (checked once per run; the hot
	// path never does).
	Validate() error
	// String renders the canonical spec (parseable by ParseService).
	String() string
}

// Queues is the dispatcher's read-only view of the server farm.
type Queues interface {
	// N returns the number of servers.
	N() int
	// Len returns the current queue length of server i (including the job
	// in service).
	Len(i int) int
}

// WorkQueues extends Queues with per-server backlog, the state a
// size-based policy (LWL) dispatches on. Work is measured in *time to
// drain* — the queued jobs' requirements plus the in-service remainder,
// divided by the server's speed — because that, not raw work, is what an
// arriving job will wait behind: on a heterogeneous fleet a fast server
// holding more work can still be the earlier exit. On unit-speed fleets
// the two notions coincide. Hosts that cannot track per-job work simply
// don't implement the interface.
type WorkQueues interface {
	Queues
	// Work returns the time server i needs to drain its current backlog,
	// ≥ 0, in service-time units.
	Work(i int) float64
}

// ArgminQueues extends Queues with sub-linear argmin access: hosts that
// maintain a hierarchical min-index over queue lengths (internal/minindex)
// implement it, and the JSQ picker consults it before falling back to the
// O(N) reference scan. ok = false means no index is currently maintained —
// hosts serve small farms with the scan, where a tight pass over a few
// cache lines beats a multi-level tree walk. The returned index must be
// uniformly distributed across tied shortest queues, the same tie-breaking
// law as the scan.
type ArgminQueues interface {
	Queues
	// ArgminLen returns a uniformly chosen index among the shortest
	// queues, or ok = false when the host maintains no length index.
	ArgminLen(rng *rand.Rand) (i int, ok bool)
}

// ArgminWorkQueues is the work-aware counterpart of ArgminQueues: an
// indexed view over per-server backlog for LWL. Hosts may key the index on
// a monotone proxy of Work (the live runtime indexes outstanding nominal
// work, quantized; see internal/lb) — the picker treats the answer as the
// argmin authority, so proxy and Work should order servers identically up
// to quantization.
type ArgminWorkQueues interface {
	WorkQueues
	// ArgminWork returns a uniformly chosen index among the least-loaded
	// servers by backlog, or ok = false when the host maintains no work
	// index.
	ArgminWork(rng *rand.Rand) (i int, ok bool)
}

// WorkAware marks policies whose pickers require a WorkQueues view. The
// live runtime checks for it when wiring a policy and switches on its
// per-server work table; the simulator keeps every server's backlog
// regardless, since it draws each job's requirement at arrival under
// every policy.
type WorkAware interface {
	Policy
	// NeedsWork is a marker; it is never called.
	NeedsWork()
}

// Policy describes a dispatch policy. NewPicker instantiates the
// per-stream state for a farm of n servers and reports configuration
// errors (e.g. SQ(d) with d > n).
type Policy interface {
	NewPicker(n int) (Picker, error)
	// String renders the canonical spec (parseable by ParsePolicy).
	String() string
}

// Picker routes one arrival to a server. Pickers are not safe for
// concurrent use; create one per stream.
type Picker interface {
	Pick(rng *rand.Rand, q Queues) int
}
