package minindex

import (
	"math/rand/v2"
	"sync/atomic"
)

// Conc is the lock-free variant of the tournament min-tree, the live
// runtime's index over its padded atomic slot table. Keys are uint32
// (queue lengths, or outstanding work quantized to microseconds); the
// tree does not store authoritative state — it reads leaf keys through
// the key callback, which loads them from the table, so the table remains
// the single source of truth and the tree is a repairable cache of its
// argmin.
//
// Every node packs (version, value, tie count) into one uint64 updated by
// compare-and-swap. The version tag is what makes concurrent repair
// converge: an updater loads the node word first, then reads its inputs
// (the leaf key, or the two children), and only then CASes in the
// recomputed word with the version bumped. A racer that read stale inputs
// either loses the CAS (the version moved) and retries with fresh reads,
// or wins it before the fresher update lands — in which case the fresher
// update's CAS, serialized after, re-reads the inputs and overwrites.
// Inductively the last successful CAS at each node saw the final state of
// its inputs, so after updates quiesce every node holds the exact
// (min, count) of its subtree — the invariant the randomized property
// test in this package hammers under -race.
//
// During churn a reader can observe a momentarily stale argmin; that is
// inherent to any index a dispatcher consults while servers complete jobs
// concurrently, and harmless here — the pick is a routing hint, and the
// bounded-queue reservation in internal/lb revalidates capacity.
type Conc struct {
	n    int
	base int
	key  func(i int) uint32 // authoritative leaf key, read from the host's table
	node []atomic.Uint64    // 1-based heap layout; packed ver|val|cnt
}

const (
	// padKey is the padding leaves' value; Update clamps real keys one
	// below it so padding never wins or ties a descent.
	padKey  = 1<<32 - 1
	maxCnt  = 1<<16 - 1 // tie counts saturate (argmin stays valid, tie weights coarsen)
	cntBits = 16
	valBits = 32
)

// pack: [ver:16][val:32][cnt:16]. The 16-bit version only needs to make
// an in-flight racer's CAS fail; 2^16 intervening updates inside one
// load-to-CAS window is beyond any realistic stall.
func pack(ver uint64, val uint32, cnt uint32) uint64 {
	return ver<<(valBits+cntBits) | uint64(val)<<cntBits | uint64(cnt)
}

func unpack(w uint64) (val, cnt uint32) {
	return uint32(w >> cntBits), uint32(w & maxCnt)
}

// NewConc builds a tree over n leaves whose keys are read via key. The
// callback must be safe for concurrent use (atomic loads from the host's
// table) and is only invoked with 0 ≤ i < n. Initial keys are read
// immediately.
func NewConc(n int, key func(i int) uint32) *Conc {
	if n < 1 {
		panic("minindex: need n ≥ 1")
	}
	base := 1
	for base < n {
		base <<= 1
	}
	t := &Conc{n: n, base: base, key: key, node: make([]atomic.Uint64, 2*base)}
	// Seed every node at the padding sentinel: internal nodes covering only
	// padding leaves are never repaired by an Update and must not read as
	// (0, 0), which would win every comparison.
	for j := 1; j < 2*base; j++ {
		t.node[j].Store(pack(0, padKey, 0))
	}
	for i := 0; i < n; i++ {
		t.Update(i)
	}
	return t
}

// Update re-reads leaf i's key from the table and repairs the path to the
// root. Call it after every change to the key's source (the table write
// must happen before the call). Safe for any number of concurrent
// callers; cost is O(log n) CASes, contended only near the root.
//
//finitelb:hotpath
func (t *Conc) Update(i int) {
	j := t.base + i
	for {
		old := t.node[j].Load()
		k := t.key(i)
		if k >= padKey {
			k = padKey - 1
		}
		if t.node[j].CompareAndSwap(old, pack(old>>(valBits+cntBits)+1, k, 1)) {
			break
		}
	}
	for j >>= 1; j >= 1; j >>= 1 {
		for {
			old := t.node[j].Load()
			lv, lc := unpack(t.node[2*j].Load())
			rv, rc := unpack(t.node[2*j+1].Load())
			var v, c uint32
			switch {
			case lv < rv:
				v, c = lv, lc
			case lv > rv:
				v, c = rv, rc
			default:
				v, c = lv, lc+rc
				if c > maxCnt {
					c = maxCnt
				}
			}
			if t.node[j].CompareAndSwap(old, pack(old>>(valBits+cntBits)+1, v, c)) {
				break
			}
		}
	}
}

// Min returns the current minimum key.
func (t *Conc) Min() uint32 {
	v, _ := unpack(t.node[1].Load())
	return v
}

// Argmin returns a leaf holding the minimum key, chosen uniformly among
// ties by the nodes' tie counts. Under concurrent updates the descent can
// meet a node whose children no longer witness its stored minimum; it then
// follows the smaller child — a best-effort hint, which is all a
// dispatcher racing live completions can ever have. Quiescent, the result
// is an exact uniformly-tie-broken argmin.
//
//finitelb:hotpath
func (t *Conc) Argmin(rng *rand.Rand) int {
	j := 1
	v, _ := unpack(t.node[1].Load())
	for j < t.base {
		lv, lc := unpack(t.node[2*j].Load())
		rv, rc := unpack(t.node[2*j+1].Load())
		switch {
		case lv == v && rv == v && lc+rc > 0:
			if uint32(rng.IntN(int(lc+rc))) < lc {
				j = 2 * j
			} else {
				j = 2*j + 1
			}
		case lv == v:
			j = 2 * j
		case rv == v:
			j = 2*j + 1
		case lv <= rv: // stale path: chase the smaller side
			j, v = 2*j, lv
		default:
			j, v = 2*j+1, rv
		}
	}
	i := j - t.base
	if i >= t.n { // stale descent strayed into padding; any real leaf will do
		i = t.n - 1
	}
	return i
}
