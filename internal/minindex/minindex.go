// Package minindex provides hierarchical min-indexes — tournament trees
// that maintain argmin over a fixed set of per-server keys incrementally —
// so that global-information dispatch policies (JSQ over queue lengths,
// LWL over outstanding work) cost O(log N) per state change and O(log N)
// per pick instead of the O(N) scan that caps dispatch throughput at large
// N. The repository keeps the scan pickers as the reference implementation
// and switches to an index only at N ≥ Threshold; both sides of the house
// use this package: the discrete-event simulator holds a Seq tree inside
// its farm view, and the live runtime (internal/lb) holds a Conc tree over
// its padded atomic slot table.
//
// Both trees are complete binary tournament trees over n leaves (padded to
// a power of two). Every node carries the minimum key of its subtree plus
// the count of leaves achieving it, which is what makes argmin sampling
// exactly uniform across ties: a pick descends from the root, choosing
// among the children that match the running minimum with probability
// proportional to their tie counts. A deterministic tournament tree would
// always surface the same tied leaf — the low-index bias the scan pickers
// are also guarded against — so the counts are load-bearing, not
// decorative.
package minindex

import "math/rand/v2"

// Threshold is the farm size at which the hosts switch JSQ/LWL from the
// reference O(N) scan to a maintained index. Below it the scan's tight
// loop over a few cache lines beats the tree's pointer-free but
// multi-level walk; above it the scan's linear cost dominates everything
// else on the dispatch path (9–12µs at N=1000 against a sub-µs budget).
const Threshold = 64

// Seq is a single-goroutine tournament min-tree over float64 keys, the
// simulator's index. Keys start at 0 (an empty farm: every queue length
// and backlog is zero, all n leaves tied).
type Seq struct {
	n    int
	base int       // leaf count, power of two ≥ n
	val  []float64 // 1-based heap layout; val[base+i] is leaf i's key
	cnt  []int32   // leaves of the subtree achieving val
}

// NewSeq builds a tree of n keys, all zero.
func NewSeq(n int) *Seq {
	if n < 1 {
		panic("minindex: need n ≥ 1")
	}
	base := 1
	for base < n {
		base <<= 1
	}
	t := &Seq{n: n, base: base, val: make([]float64, 2*base), cnt: make([]int32, 2*base)}
	for i := 0; i < n; i++ {
		t.cnt[base+i] = 1
	}
	for i := n; i < base; i++ {
		t.val[base+i] = padKeySeq // padding never wins or ties
	}
	for j := base - 1; j >= 1; j-- {
		t.combine(j)
	}
	return t
}

// padKeySeq is the padding leaves' key; real keys must stay below it.
// math.Inf would also work, but a finite sentinel keeps comparisons exact.
const padKeySeq = 1e308

//finitelb:hotpath
func (t *Seq) combine(j int) {
	l, r := 2*j, 2*j+1
	switch {
	case t.val[l] < t.val[r]:
		t.val[j], t.cnt[j] = t.val[l], t.cnt[l]
	case t.val[l] > t.val[r]:
		t.val[j], t.cnt[j] = t.val[r], t.cnt[r]
	default:
		t.val[j], t.cnt[j] = t.val[l], t.cnt[l]+t.cnt[r]
	}
}

// Update sets leaf i's key and repairs the path to the root, stopping
// early once an ancestor's (min, count) is unchanged.
//
//finitelb:hotpath
func (t *Seq) Update(i int, key float64) {
	j := t.base + i
	if t.val[j] == key {
		return
	}
	t.val[j] = key
	for j >>= 1; j >= 1; j >>= 1 {
		v, c := t.val[j], t.cnt[j]
		t.combine(j)
		if t.val[j] == v && t.cnt[j] == c {
			return
		}
	}
}

// Min returns the minimum key.
func (t *Seq) Min() float64 { return t.val[1] }

// Argmin returns a uniformly chosen leaf among those holding the minimum
// key, descending by tie counts.
//
//finitelb:hotpath
func (t *Seq) Argmin(rng *rand.Rand) int {
	j := 1
	for j < t.base {
		l, r := 2*j, 2*j+1
		switch {
		case t.val[l] < t.val[r]:
			j = l
		case t.val[l] > t.val[r]:
			j = r
		default:
			if int32(rng.IntN(int(t.cnt[l]+t.cnt[r]))) < t.cnt[l] {
				j = l
			} else {
				j = r
			}
		}
	}
	return j - t.base
}
