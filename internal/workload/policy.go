package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// SQD is the paper's power-of-d policy: sample D distinct servers
// uniformly without replacement and join the shortest, ties broken
// uniformly. Its picker draws a partial Fisher–Yates over a persistent
// permutation; the simulator's concrete SQ(d) picker re-derives that
// order draw for draw, and the default wiring's pinned stream rests on
// it.
type SQD struct {
	D int // choices per arrival, 1 ≤ D ≤ N
}

// NewPicker implements Policy.
func (p SQD) NewPicker(n int) (Picker, error) {
	if p.D < 1 || p.D > n {
		return nil, fmt.Errorf("workload: SQ(d) with d = %d outside [1, N=%d]", p.D, n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return &sqdPicker{d: p.D, perm: perm}, nil
}

func (p SQD) String() string { return fmt.Sprintf("sqd:%d", p.D) }

type sqdPicker struct {
	d    int
	perm []int
}

func (pk *sqdPicker) Pick(rng *rand.Rand, q Queues) int {
	// Sample d distinct servers by partial Fisher–Yates, keeping the
	// least-loaded with uniform tie breaking.
	n := len(pk.perm)
	best, bestLen, ties := -1, math.MaxInt, 0
	for k := 0; k < pk.d; k++ {
		j := k + rng.IntN(n-k)
		pk.perm[k], pk.perm[j] = pk.perm[j], pk.perm[k]
		s := pk.perm[k]
		switch l := q.Len(s); {
		case l < bestLen:
			best, bestLen, ties = s, l, 1
		case l == bestLen:
			ties++
			if rng.IntN(ties) == 0 {
				best = s
			}
		}
	}
	return best
}

// JSQ joins the shortest of all N queues (ties uniform) — SQ(N) in law,
// implemented as a single scan.
type JSQ struct{}

// NewPicker implements Policy.
func (JSQ) NewPicker(n int) (Picker, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: JSQ needs n ≥ 1, got %d", n)
	}
	return jsqPicker{}, nil
}

func (JSQ) String() string { return "jsq" }

type jsqPicker struct{}

func (jsqPicker) Pick(rng *rand.Rand, q Queues) int {
	if aq, ok := q.(ArgminQueues); ok {
		if i, ok := aq.ArgminLen(rng); ok {
			return i // O(log N) via the host's min-index
		}
	}
	// Reference O(N) scan. The start is rotated off rng: reservoir
	// sampling already breaks ties uniformly on a frozen view, but a
	// directional 0→N−1 pass over *live* queues reads low indices with
	// systematically staler state than high ones (a server that drains
	// mid-scan is seen long only if it sits early), deterministically
	// biasing low-numbered servers. Randomizing the origin removes the
	// positional bias; the reservoir keeps tie-breaking exactly uniform.
	n := q.N()
	start := rng.IntN(n)
	best, bestLen, ties := start, q.Len(start), 1
	for k := 1; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		switch l := q.Len(i); {
		case l < bestLen:
			best, bestLen, ties = i, l, 1
		case l == bestLen:
			ties++
			if rng.IntN(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// JIQ is join-idle-queue: route to a uniformly chosen idle server when one
// exists, otherwise to a uniformly chosen server. Its message footprint is
// what makes it attractive at datacenter scale; here it is simulation-only
// (no analytic oracle), validated by ordering properties.
type JIQ struct{}

// NewPicker implements Policy.
func (JIQ) NewPicker(n int) (Picker, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: JIQ needs n ≥ 1, got %d", n)
	}
	return jiqPicker{}, nil
}

func (JIQ) String() string { return "jiq" }

type jiqPicker struct{}

func (jiqPicker) Pick(rng *rand.Rand, q Queues) int {
	// Reservoir-sample uniformly among idle servers in one scan.
	n := q.N()
	idle, count := -1, 0
	for i := 0; i < n; i++ {
		if q.Len(i) == 0 {
			count++
			if rng.IntN(count) == 0 {
				idle = i
			}
		}
	}
	if count > 0 {
		return idle
	}
	return rng.IntN(n)
}

// LWL is least-work-left: join the server whose backlog drains soonest
// (queued service requirements plus the in-service remainder, scaled by
// the server's speed), ties broken uniformly. It sees through the
// queue-length proxy that JSQ relies on — under high-variance
// (heavy-tailed) service a short queue can hide an enormous job, and on
// heterogeneous fleets a short queue can sit on a slow server — at the
// price of knowing every job's size at dispatch time. Its picker requires
// a WorkQueues view; hosts detect that via the WorkAware marker and turn
// on per-job work tracking.
type LWL struct{}

// NewPicker implements Policy.
func (LWL) NewPicker(n int) (Picker, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: LWL needs n ≥ 1, got %d", n)
	}
	return lwlPicker{}, nil
}

func (LWL) String() string { return "lwl" }

// NeedsWork marks LWL as WorkAware.
func (LWL) NeedsWork() {}

type lwlPicker struct{}

func (lwlPicker) Pick(rng *rand.Rand, q Queues) int {
	if aw, ok := q.(ArgminWorkQueues); ok {
		if i, ok := aw.ArgminWork(rng); ok {
			return i // O(log N) via the host's min-index
		}
	}
	wq, ok := q.(WorkQueues)
	if !ok {
		panic("workload: LWL picker needs a WorkQueues view (host did not enable work tracking)")
	}
	// Reference O(N) scan with a rotated origin; see jsqPicker.Pick for
	// why the rotation matters on live, concurrently-updated views.
	n := wq.N()
	start := rng.IntN(n)
	best, bestWork, ties := start, wq.Work(start), 1
	for k := 1; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		switch w := wq.Work(i); {
		case w < bestWork:
			best, bestWork, ties = i, w, 1
		case w == bestWork:
			ties++
			if rng.IntN(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// RoundRobin cycles through the servers in order, ignoring queue state
// entirely; with deterministic arrivals each server sees a D/M/1 queue,
// the oracle the tests use.
type RoundRobin struct{}

// NewPicker implements Policy.
func (RoundRobin) NewPicker(n int) (Picker, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: round-robin needs n ≥ 1, got %d", n)
	}
	return &rrPicker{n: n}, nil
}

func (RoundRobin) String() string { return "round-robin" }

type rrPicker struct{ n, next int }

func (pk *rrPicker) Pick(*rand.Rand, Queues) int {
	i := pk.next
	pk.next++
	if pk.next == pk.n {
		pk.next = 0
	}
	return i
}

// Random routes each arrival to a uniformly chosen server — SQ(1), the
// no-information baseline every load-aware policy must beat.
type Random struct{}

// NewPicker implements Policy.
func (Random) NewPicker(n int) (Picker, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: random needs n ≥ 1, got %d", n)
	}
	return randomPicker{n: n}, nil
}

func (Random) String() string { return "random" }

type randomPicker struct{ n int }

func (pk randomPicker) Pick(rng *rand.Rand, _ Queues) int { return rng.IntN(pk.n) }
