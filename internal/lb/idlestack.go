package lb

import (
	"math/rand/v2"
	"sync/atomic"

	"finitelb/internal/workload"
)

// idleStack is a lock-free Treiber stack of server ids, the O(1) heart of
// the JIQ fast path: a server pushes itself when its queue drains, a
// dispatcher pops the most recently idled server instead of scanning all N
// queues. Nodes live in a fixed arena indexed by server id — no
// allocation, no pointers — and the head packs a 32-bit ABA tag above the
// 32-bit top index, bumped on every successful push or pop, so a stalled
// compare-and-swap cannot splice a reused node under a concurrent pop.
//
// Entries are hints, not guarantees: a server dispatched to through the
// non-idle fallback may still be on the stack, so a pop can return a
// server that has since gone busy. That is standard JIQ behaviour (idle
// reports race with dispatches in any distributed implementation) and is
// harmless: the job queues like any other. Each server appears at most
// once (the slot's onStack flag gates pushes), which is what makes the
// fixed arena sound.
type idleStack struct {
	head atomic.Uint64   // tag<<32 | id+1; low half 0 when empty
	next []atomic.Uint32 // next[id] = packed id+1 of the node below, 0 at the bottom
}

func newIdleStack(n int) *idleStack {
	return &idleStack{next: make([]atomic.Uint32, n)}
}

// push adds server id to the stack top.
//
//finitelb:hotpath
func (st *idleStack) push(id int) {
	for {
		h := st.head.Load()
		st.next[id].Store(uint32(h))
		nh := (h>>32+1)<<32 | uint64(id+1)
		if st.head.CompareAndSwap(h, nh) {
			return
		}
	}
}

// tryPop removes and returns the most recently pushed server id.
//
//finitelb:hotpath
func (st *idleStack) tryPop() (int, bool) {
	for {
		h := st.head.Load()
		top := uint32(h)
		if top == 0 {
			return -1, false
		}
		id := int(top - 1)
		nh := (h>>32+1)<<32 | uint64(st.next[id].Load())
		if st.head.CompareAndSwap(h, nh) {
			return id, true
		}
	}
}

// idlePicker is the farm's picker under the JIQ policy: pop an idle hint
// in O(1), discarding hints from servers that have no rank in the view's
// membership snapshot (they went down after reporting idle), and fall
// back to a uniform pick among the live servers when nobody live has
// reported idle. It reads the dispatcher's own view, so like every other
// picker it answers in ranks of that view.
type idlePicker struct{ v *qview }

//finitelb:hotpath
func (p idlePicker) Pick(rng *rand.Rand, _ workload.Queues) int {
	lb, live := p.v.lb, p.v.live
	for {
		id, ok := lb.idle.tryPop()
		if !ok {
			return rng.IntN(live.Alive())
		}
		lb.slots[id].onStack.Store(false)
		if r := live.Rank(id); r >= 0 {
			return r
		}
	}
}
