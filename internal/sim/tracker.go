package sim

import "math"

// This file is the completion tracker — the structure the event loop
// consults on every event for "which server finishes next, and when".
// Three concrete modes, selected by farm size and service law
// (BenchmarkTracker; numbers in doc.go "Simulator performance"):
//
//   - linear: a flat id-indexed key array, min by strict scan. Wins only
//     while all completions fit in a couple of cache lines (N ≤ 8).
//   - tourTracker: a 4-ary tournament min-tree over fixed-position
//     leaves, internal nodes caching their subtree's (key, id) winner —
//     minindex.Seq's shape, carrying winner ids instead of tie counts
//     (the tracker needs the argmin's identity, not tie uniformity:
//     completion ties have probability zero under continuous service
//     draws, and the first-child rule is deterministic). Keys never
//     move, so an update repairs the fixed leaf→root path whose
//     addresses are pure arithmetic in the leaf index — the loads
//     overlap instead of chaining, and min+argmin is one root read.
//   - calTracker (calendar.go): Brown's calendar queue, exact-min; wins
//     at large N by exploiting the loop's monotone re-key pattern for
//     amortized O(1) updates. See its own comment.
//
// Shared tricks: keys are the raw IEEE-754 bits of the (nonnegative)
// completion times, so every comparison is an integer op and the
// four-way min is computed branch-free with sign-mask selects — on
// queueing workloads those comparisons are coin flips, and their
// mispredictions cost as much as an interface dispatch. The root lives at
// slot 3 so four-node child groups start on 64-byte boundaries: one cache
// line per level.

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

// linearCutoff is the farm size at or below which the flat scan beats
// both trees (measured with BenchmarkTracker; see doc.go).
const linearCutoff = 8

// calCutoff is the farm size from which the calendar queue overtakes the
// tournament tree on light-tailed completions (measured with
// BenchmarkTracker and the full-loop BenchmarkSimJobs; see doc.go).
const calCutoff = 512

// tracker is the production completion tracker, mode-selected by
// newTrackerFor: a flat scanned array at N ≤ linearCutoff (preserving
// the old linearTracker's lowest-index tie rule), the tournament tree in
// the mid range and whenever the service law is heavy-tailed (deep keys
// defeat the calendar's window sweep), the calendar queue at large N.
// The mode never changes the simulation's draws — only its cost — so
// the selection heuristic is free to evolve with the benchmarks.
type tracker struct {
	cal   calTracker   // calendar mode when cal.keys != nil
	tour  *tourTracker // tournament mode when non-nil
	nodes []tnode      // linear mode otherwise, id-indexed
	n     int          // real entries
}

// newTrackerFor picks the tracker mode for a farm of n servers whose
// completion keys are heavy-tailed or not.
func newTrackerFor(n int, heavyTail bool) *tracker {
	trk := &tracker{n: n}
	switch {
	case n <= linearCutoff:
		trk.nodes = make([]tnode, n)
		for i := range trk.nodes {
			trk.nodes[i] = tnode{tb: infBits, id: int32(i)}
		}
	case heavyTail || n < calCutoff:
		trk.tour = newTourTracker(n)
	default:
		trk.cal.init(n)
	}
	return trk
}

// min returns the earliest completion and its server. With every server
// idle (all +Inf) the id is −1 (linear, calendar) or an arbitrary idle
// leaf (tree modes); the event loop never reads the id in that case
// because the next arrival always precedes +Inf.
//
//finitelb:hotpath
func (k *tracker) min() (float64, int) {
	if k.tour != nil {
		return k.tour.min()
	}
	if k.nodes == nil {
		return math.Float64frombits(k.cal.minK), int(k.cal.minI)
	}
	best, id := uint64(infBits), -1
	for i := 0; i < k.n; i++ {
		if k.nodes[i].tb < best {
			best, id = k.nodes[i].tb, i
		}
	}
	return math.Float64frombits(best), id
}

// update sets server id's pending completion time. t must be nonnegative
// (it is an absolute event time) or +Inf; the bit-pattern key order
// depends on it.
//
//finitelb:hotpath
func (k *tracker) update(id int, t float64) {
	if k.tour != nil {
		k.tour.update(id, t)
		return
	}
	if k.nodes == nil {
		k.cal.update(id, t)
		return
	}
	k.nodes[id].tb = math.Float64bits(t)
}

// tourTracker is the 4-ary tournament min-tree (see the file comment). It
// loses the large-N slot to the calendar queue, whose amortized O(1)
// needs only the monotone re-key pattern the event loop guarantees, but
// its cost does not depend on how far ahead a key lies — so heavy-tailed
// laws, whose deep keys defeat the calendar's window sweep, stay on it at
// every size.
type tourTracker struct {
	// nodes: the implicit 4-ary tree — internal winners in
	// [rootSlot, leafBase), leaves (padded to a power of four with +Inf)
	// from leafBase, server i's key at leafBase+i.
	nodes    []tnode
	leafBase int
	n        int // real entries
}

// newTourTracker builds the tournament tree.
func newTourTracker(n int) *tourTracker {
	leaves := 1
	for leaves < n {
		leaves *= 4
	}
	internal := (leaves - 1) / 3
	t := &tourTracker{nodes: make([]tnode, rootSlot+internal+leaves), leafBase: rootSlot + internal, n: n}
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

//finitelb:hotpath
func (k *tourTracker) min() (float64, int) {
	return math.Float64frombits(k.nodes[rootSlot].tb), int(k.nodes[rootSlot].id)
}

// update sets server id's key and repairs the fixed leaf→root path,
// stopping as soon as an ancestor's (key, id) winner is unchanged.
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
