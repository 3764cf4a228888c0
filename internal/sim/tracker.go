package sim

import "math"

// This file is the completion tracker — the structure the event loop
// consults on every event for "which server finishes next, and when". It
// is one structure at every farm size: a 4-ary tournament min-tree over
// fixed-position leaves, internal nodes caching their subtree's (key, id)
// winner — minindex.Seq's shape, carrying winner ids instead of tie counts
// (the tracker needs the argmin's identity, not tie uniformity: completion
// ties have probability zero under continuous service draws, and the
// first-child rule is deterministic). Keys never move, so an update
// repairs the fixed leaf→root path whose addresses are pure arithmetic in
// the leaf index — the loads overlap instead of chaining, and min+argmin
// is one root read. Its cost does not depend on how far ahead a key lies
// or on which server is re-keyed, so heavy-tailed laws and churn's re-key
// of a non-minimum server are ordinary updates.
//
// Keys are the raw IEEE-754 bits of the (nonnegative) completion times,
// so every comparison is an integer op and the four-way min is computed
// branch-free with sign-mask selects — on queueing workloads those
// comparisons are coin flips, and their mispredictions cost as much as an
// interface dispatch. The root lives at slot 3 so four-node child groups
// start on 64-byte boundaries: one cache line per level.

// tnode packs a completion time (as raw nonnegative-float bits) with its
// server id; the pad keeps the stride a power of two so slot addressing
// stays shift-based.
type tnode struct {
	tb uint64
	id int32
	_  int32
}

// infBits is the key of an idle server and of the padding entries.
const infBits = 0x7FF0000000000000 // math.Float64bits(+Inf)

// rootSlot aligns child groups: children of slot i sit at 4i−8 … 4i−5,
// which for i ≥ 3 is a group starting at a multiple of 4 — one cache
// line at 16 bytes per node. parent(i) = ((i−4) >> 2) + 3.
const rootSlot = 3

// tourTracker is the 4-ary tournament min-tree (see the file comment).
type tourTracker struct {
	// nodes: the implicit 4-ary tree — internal winners in
	// [rootSlot, leafBase), leaves (padded to a power of four with +Inf)
	// from leafBase, server i's key at leafBase+i.
	nodes    []tnode
	leafBase int
}

// newTourTracker builds the tournament tree.
func newTourTracker(n int) *tourTracker {
	leaves := 1
	for leaves < n {
		leaves *= 4
	}
	internal := (leaves - 1) / 3
	t := &tourTracker{nodes: make([]tnode, rootSlot+internal+leaves), leafBase: rootSlot + internal}
	for i := range t.nodes {
		// Leaf ids are their server index; padding leaves and internal
		// seeds get ids that are never read (an +Inf winner is never
		// acted on — the next arrival always precedes it).
		t.nodes[i] = tnode{tb: infBits, id: int32(i - t.leafBase)}
	}
	for j := t.leafBase - 1; j >= rootSlot; j-- {
		t.nodes[j] = min4(t.nodes, 4*j-8)
	}
	return t
}

// min4 returns the (key, id) winner of the aligned child group starting
// at slot c, first child winning ties (branches are fine here: it is
// only used during construction; the hot path inlines the branch-free
// version).
//
//finitelb:hotpath
func min4(nodes []tnode, c int) tnode {
	w := nodes[c]
	for _, ch := range nodes[c+1 : c+4] {
		if ch.tb < w.tb {
			w = ch
		}
	}
	return w
}

// min returns the earliest completion and its server: one root read. With
// every server idle (all +Inf) the id is an arbitrary idle leaf; the event
// loop never reads it in that case because the next arrival always
// precedes +Inf.
//
//finitelb:hotpath
func (k *tourTracker) min() (float64, int) {
	return math.Float64frombits(k.nodes[rootSlot].tb), int(k.nodes[rootSlot].id)
}

// at returns server id's completion time, +Inf when it is idle: the
// tracker is the one record of when each in-service job finishes.
//
//finitelb:hotpath
func (k *tourTracker) at(id int) float64 {
	return math.Float64frombits(k.nodes[k.leafBase+id].tb)
}

// update sets server id's pending completion time and repairs the fixed
// leaf→root path, stopping as soon as an ancestor's (key, id) winner is
// unchanged. t must be nonnegative (it is an absolute event time) or +Inf;
// the bit-pattern key order depends on it.
//
//finitelb:hotpath
func (k *tourTracker) update(id int, t float64) {
	tb := math.Float64bits(t)
	nodes := k.nodes
	j := k.leafBase + id
	nodes[j].tb = tb
	for j > rootSlot {
		p := ((j - 4) >> 2) + rootSlot
		c := 4*p - 8
		ch := nodes[c : c+4 : c+4]
		t0, t1, t2, t3 := ch[0].tb, ch[1].tb, ch[2].tb, ch[3].tb
		i0, i1, i2, i3 := ch[0].id, ch[1].id, ch[2].id, ch[3].id
		// Pairwise branchless mins: d = all-ones iff right < left (keys
		// fit in 63 bits, so the signed difference's sign is the unsigned
		// comparison); ids ride along under the same masks.
		d := uint64((int64(t1) - int64(t0)) >> 63)
		v01 := t0 ^ ((t0 ^ t1) & d)
		m01 := i0 ^ ((i0 ^ i1) & int32(d))
		d = uint64((int64(t3) - int64(t2)) >> 63)
		v23 := t2 ^ ((t2 ^ t3) & d)
		m23 := i2 ^ ((i2 ^ i3) & int32(d))
		d = uint64((int64(v23) - int64(v01)) >> 63)
		wt := v01 ^ ((v01 ^ v23) & d)
		wi := m01 ^ ((m01 ^ m23) & int32(d))
		if nodes[p].tb == wt && nodes[p].id == wi {
			return
		}
		nodes[p].tb = wt
		nodes[p].id = wi
		j = p
	}
}
