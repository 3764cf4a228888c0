package sim

import (
	"math"
	"math/bits"
)

// calTracker is the calendar-queue completion tracker — the contender
// that won the production slot at large N (see BenchmarkTracker and
// doc.go "Simulator performance").
//
// It exploits an invariant the event loop honours: the tracker is only
// ever asked to (a) re-key the *current minimum* — a departure moves the
// completing server to a later completion or to idle — or (b) give an
// idle server its first completion. No decrease-key of interior
// elements, no deletion of non-minimal elements (a churn crash is the
// one exception: rare, and handled exactly — only the amortized cost
// argument leans on the pattern). That makes the tracker
// a monotone priority queue, the regime where Brown's calendar queue
// does O(1) amortized work per event against the Θ(log N) sift every
// tree pays: completions hash into time buckets of width ~1/N, inserts
// are a list prepend, and the exact minimum is a cached (key, id) pair —
// updated in O(1) on inserts and recomputed after a min removal by
// sweeping forward from the old minimum's bucket. The sweep itself rides
// an occupancy bitmap (one bit per bucket), so runs of empty buckets
// cost a TrailingZeros, not a load per bucket.
//
// Exactness (this tracker is bit-exact, not approximate): the cached min
// is maintained on every mutation; the recompute sweep accepts a
// bucket's smallest key only if its un-wrapped bucket ordinal is the one
// the sweep step covers — computed with the same truncation bucket()
// uses, so no later bucket, and no later "year" sharing the same bucket
// index, can hold anything smaller. Events beyond the calendar's window
// (heavy-tailed service) simply fail the ordinal check until the sweep's
// year catches up; a full fallback scan guarantees termination when
// every pending completion is far away. All arithmetic is deterministic;
// keys are compared as the raw bits of the nonnegative completion times,
// exactly like the tree trackers.
type calTracker struct {
	keys  []uint64 // id → key bits; infBits when idle (absent)
	next  []int32  // id → successor in its bucket chain; −1 ends
	head  []int32  // bucket → first id; −1 empty
	occ   []uint64 // occupancy bitmap over buckets
	mask  uint64
	width float64
	invW  float64
	minK  uint64 // cached min key bits; infBits when empty
	minI  int32  // cached argmin id; −1 when empty
	live  int    // servers currently in the calendar
}

// init sizes the calendar for n servers: bucket width 1/n (about one
// pending completion per bucket at full utilization) and a power-of-two
// bucket count covering a ≥ 4-service-time window, beyond which only the
// tail of any unit-mean law lands.
func (t *calTracker) init(n int) {
	m := 64
	for m < 4*n {
		m <<= 1
	}
	*t = calTracker{
		keys:  make([]uint64, n),
		next:  make([]int32, n),
		head:  make([]int32, m),
		occ:   make([]uint64, m/64),
		mask:  uint64(m - 1),
		width: 1 / float64(n),
		invW:  float64(n),
		minK:  infBits,
		minI:  -1,
	}
	for i := range t.keys {
		t.keys[i] = infBits
		t.next[i] = -1
	}
	for b := range t.head {
		t.head[b] = -1
	}
}

//finitelb:hotpath
func (t *calTracker) bucket(tb uint64) uint64 {
	return uint64(int64(math.Float64frombits(tb)*t.invW)) & t.mask
}

//finitelb:hotpath
func (t *calTracker) min() (float64, int) {
	return math.Float64frombits(t.minK), int(t.minI)
}

//finitelb:hotpath
func (t *calTracker) update(id int, tm float64) {
	tb := math.Float64bits(tm)
	old := t.keys[id]
	if old != infBits {
		// Unlink from its bucket chain (usually length 1).
		b := t.bucket(old)
		if j := t.head[b]; j == int32(id) {
			if t.head[b] = t.next[id]; t.head[b] < 0 {
				t.occ[b>>6] &^= 1 << (b & 63)
			}
		} else {
			for t.next[j] != int32(id) {
				j = t.next[j]
			}
			t.next[j] = t.next[id]
		}
		t.live--
	}
	t.keys[id] = tb
	if tb != infBits {
		b := t.bucket(tb)
		if t.next[id] = t.head[b]; t.next[id] < 0 {
			t.occ[b>>6] |= 1 << (b & 63)
		}
		t.head[b] = int32(id)
		t.live++
		if tb <= t.minK {
			// ≤, not <: re-inserting the removed minimum's id with its
			// old key (a zero-length service) must restore the cache.
			t.minK, t.minI = tb, int32(id)
			return
		}
	}
	if int32(id) == t.minI {
		t.recompute(old)
	}
}

// recompute re-establishes the cached minimum after the old one (key
// bits oldK) left the calendar, sweeping occupied buckets forward from
// the old minimum's position. Every remaining key is ≥ the old minimum
// (it was the minimum), so the first in-window bucket minimum is the
// global one.
//
//finitelb:hotpath
func (t *calTracker) recompute(oldK uint64) {
	if t.live == 0 {
		t.minK, t.minI = infBits, -1
		return
	}
	base := int64(math.Float64frombits(oldK) * t.invW)
	m := int64(t.mask) + 1
	words := len(t.occ)
	for swept := int64(0); swept < m; {
		b := uint64(base+swept) & t.mask
		// Jump to the next occupied bucket at or after b.
		w := int(b >> 6)
		word := t.occ[w] >> (b & 63)
		if word == 0 {
			// Skip the rest of this word, then whole empty words.
			swept += 64 - int64(b&63)
			for swept < m {
				w++
				if w == words {
					w = 0
				}
				if t.occ[w] != 0 {
					break
				}
				swept += 64
			}
			continue
		}
		skip := int64(bits.TrailingZeros64(word))
		swept += skip
		if swept >= m {
			break
		}
		b = uint64(base+swept) & t.mask
		bestK, bestI := uint64(infBits), int32(-1)
		for j := t.head[b]; j >= 0; j = t.next[j] {
			if kk := t.keys[j]; kk < bestK {
				bestK, bestI = kk, j
			}
		}
		// Exact year check: accept only a candidate whose un-wrapped
		// bucket ordinal is the one this sweep step covers (the same
		// truncation bucket() uses, so rounding cannot disagree).
		if int64(math.Float64frombits(bestK)*t.invW) == base+swept {
			t.minK, t.minI = bestK, bestI
			return
		}
		swept++
	}
	// Every pending completion lies beyond a full calendar window (deep
	// heavy-tail territory): take the global minimum directly.
	bestK, bestI := uint64(infBits), int32(-1)
	for id, kk := range t.keys {
		if kk < bestK {
			bestK, bestI = kk, int32(id)
		}
	}
	t.minK, t.minI = bestK, bestI
}
