package sim

import (
	"math"
	"math/rand/v2"

	"finitelb/internal/workload"
)

// The loop's pickers are concrete re-derivations of the
// internal/workload pickers, specialized to the simulator's own farm
// state: queue lengths and backlogs are read straight off the dense
// mirrors (inlined), rng draws come from the concrete frand generator, and
// the indexed variants go straight to the min-trees without the
// ArgminQueues type-assertion detour. Each picker must reproduce its
// workload counterpart's rng consumption exactly — same draws, same
// order — which TestPickersMatchWorkload pins picker by picker and the
// loop equivalence tests pin end to end. A user-supplied policy — and
// every non-SQ(d) policy on a churn run — picks through ifacePick over
// the farm view instead.
//
// pick is one indirect call per arrival (the pickers are held as this
// interface); everything inside is concrete.
type picker interface {
	pick(st *loopState) int
}

// tieReporter is implemented by pickers that can report how many
// candidates were tied at the minimum on their last pick; the trace
// hooks surface that in Span.Ties. Pickers without per-pick state (the
// stateless scan/tree/random variants) simply don't implement it.
type tieReporter interface{ lastTies() int }

// lastTies extracts the last pick's tie count, −1 when the picker
// doesn't report.
//
//finitelb:hotpath
func lastTies(pk picker) int {
	if t, ok := pk.(tieReporter); ok {
		return t.lastTies()
	}
	return -1
}

// sqdPick mirrors workload.SQD's picker: partial Fisher–Yates over a
// persistent permutation, reservoir tie-breaking.
type sqdPick struct {
	d    int
	perm []int
	ties int32 // candidates tied at the minimum on the last pick
}

func (pk *sqdPick) lastTies() int { return int(pk.ties) }

//finitelb:hotpath
func (pk *sqdPick) pick(st *loopState) int {
	fr := st.fr
	qlen := st.qlen
	n := len(pk.perm)
	best, bestLen, ties := -1, int32(math.MaxInt32), int32(0)
	for k := 0; k < pk.d; k++ {
		j := k + fr.IntN(n-k)
		pk.perm[k], pk.perm[j] = pk.perm[j], pk.perm[k]
		s := pk.perm[k]
		switch l := qlen[s]; {
		case l < bestLen:
			best, bestLen, ties = s, l, 1
		case l == bestLen:
			ties++
			if fr.IntN(int(ties)) == 0 {
				best = s
			}
		}
	}
	pk.ties = ties
	return best
}

// jsqScanPick mirrors workload.JSQ's reference scan: rotated origin,
// reservoir tie-breaking.
type jsqScanPick struct{}

//finitelb:hotpath
func (jsqScanPick) pick(st *loopState) int {
	fr := st.fr
	qlen := st.qlen
	n := len(qlen)
	start := fr.IntN(n)
	best, bestLen, ties := start, qlen[start], 1
	for k := 1; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		switch l := qlen[i]; {
		case l < bestLen:
			best, bestLen, ties = i, l, 1
		case l == bestLen:
			ties++
			if fr.IntN(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// jsqTreePick mirrors workload.JSQ through a maintained length index: the
// tree descent consumes the same tie-break draws the interface path does,
// through the std wrapper over the same generator.
type jsqTreePick struct{}

//finitelb:hotpath
func (jsqTreePick) pick(st *loopState) int { return st.lenTree.Argmin(st.std) }

// lwlScanPick mirrors workload.LWL's reference scan over time-to-drain.
type lwlScanPick struct{}

//finitelb:hotpath
func (lwlScanPick) pick(st *loopState) int {
	fr := st.fr
	n := len(st.qlen)
	start := fr.IntN(n)
	best, bestWork, ties := start, st.workAt(start), 1
	for k := 1; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		switch w := st.workAt(i); {
		case w < bestWork:
			best, bestWork, ties = i, w, 1
		case w == bestWork:
			ties++
			if fr.IntN(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// lwlTreePick mirrors workload.LWL through the maintained work index.
type lwlTreePick struct{}

//finitelb:hotpath
func (lwlTreePick) pick(st *loopState) int { return st.workTree.Argmin(st.std) }

// jiqPick mirrors workload.JIQ: reservoir over idle servers, uniform
// fallback.
type jiqPick struct{}

//finitelb:hotpath
func (jiqPick) pick(st *loopState) int {
	fr := st.fr
	qlen := st.qlen
	n := len(qlen)
	idle, count := -1, 0
	for i := 0; i < n; i++ {
		if qlen[i] == 0 {
			count++
			if fr.IntN(count) == 0 {
				idle = i
			}
		}
	}
	if count > 0 {
		return idle
	}
	return fr.IntN(n)
}

// rrPick mirrors workload.RoundRobin: a cursor, no draws.
type rrPick struct{ n, next int }

//finitelb:hotpath
func (pk *rrPick) pick(*loopState) int {
	i := pk.next
	pk.next++
	if pk.next == pk.n {
		pk.next = 0
	}
	return i
}

// randPick mirrors workload.Random: one uniform draw.
type randPick struct{ n int }

//finitelb:hotpath
func (pk randPick) pick(st *loopState) int { return st.fr.IntN(pk.n) }

// farm is the workload.Queues view of the loop state that interface
// pickers read; it also implements WorkQueues for work-aware policies and
// the Argmin views when the matching min-index is on. Down servers are
// masked here — worst-possible length and work — so length- and
// work-scanning pickers route around them; the concrete pickers read the
// true mirrors and never run on a degraded farm (see churnPick).
type farm struct{ st *loopState }

func (f farm) N() int { return len(f.st.qlen) }

//finitelb:hotpath
func (f farm) Len(i int) int {
	if f.st.down != nil && f.st.down[i] {
		return math.MaxInt32
	}
	return int(f.st.qlen[i])
}

//finitelb:hotpath
func (f farm) Work(i int) float64 {
	if f.st.down != nil && f.st.down[i] {
		return math.Inf(1)
	}
	return f.st.workAt(i)
}

// ArgminLen implements workload.ArgminQueues when the length index is on.
//
//finitelb:hotpath
func (f farm) ArgminLen(rng *rand.Rand) (int, bool) {
	if f.st.lenTree == nil {
		return 0, false
	}
	return f.st.lenTree.Argmin(rng), true
}

// ArgminWork implements workload.ArgminWorkQueues when the work index is on.
//
//finitelb:hotpath
func (f farm) ArgminWork(rng *rand.Rand) (int, bool) {
	if f.st.workTree == nil {
		return 0, false
	}
	return f.st.workTree.Argmin(rng), true
}

// ifacePick adapts a workload.Picker to the loop. The view is boxed once
// here; boxing it per Pick would be a conversion on the event path.
type ifacePick struct {
	pk workload.Picker
	q  workload.Queues
}

//finitelb:hotpath
func (p ifacePick) pick(st *loopState) int { return p.pk.Pick(st.std, p.q) }

// adapterPicker builds the adapter for a policy.
func (st *loopState) adapterPicker(pol workload.Policy) picker {
	pk, err := pol.NewPicker(len(st.qlen))
	if err != nil {
		panic("sim: unresolved wiring: " + err.Error())
	}
	return ifacePick{pk: pk, q: farm{st}}
}
