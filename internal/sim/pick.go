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
// every policy on a churn run — picks through ifacePick over the farm
// view instead.
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
// pickers read: the farm of the live servers, addressed by rank in
// st.live. It also implements WorkQueues for work-aware policies and the
// Argmin views when the matching min-index is on. A down server has no
// rank, so no picker ever reads one; the concrete pickers read the id
// mirrors directly and run only where membership never changes.
type farm struct{ st *loopState }

func (f farm) N() int { return f.st.live.Alive() }

//finitelb:hotpath
func (f farm) Len(r int) int { return int(f.st.qlen[f.st.live.ID(r)]) }

//finitelb:hotpath
func (f farm) Work(r int) float64 { return f.st.workAt(f.st.live.ID(r)) }

// ArgminLen implements workload.ArgminQueues when the length index is on.
// The index is keyed by server id with down servers at +Inf (see note),
// so its argmin is live and has a rank.
//
//finitelb:hotpath
func (f farm) ArgminLen(rng *rand.Rand) (int, bool) {
	if f.st.lenTree == nil {
		return 0, false
	}
	return f.st.live.Rank(f.st.lenTree.Argmin(rng)), true
}

// ArgminWork implements workload.ArgminWorkQueues when the work index is on.
//
//finitelb:hotpath
func (f farm) ArgminWork(rng *rand.Rand) (int, bool) {
	if f.st.workTree == nil {
		return 0, false
	}
	return f.st.live.Rank(f.st.workTree.Argmin(rng)), true
}

// ifacePick adapts a workload policy to the loop: the policy's ordinary
// picker for the live servers over the rank view, rebuilt whenever the
// membership snapshot changes (control-plane-rare, so round-robin's
// cursor and SQ(d)'s permutation restart there), the picked rank mapped
// back to a server id. The view is boxed once here; boxing it per Pick
// would be a conversion on the event path.
type ifacePick struct {
	pol  workload.Policy
	live *workload.Live // the snapshot pk was built for
	pk   workload.Picker
	q    workload.Queues
}

//finitelb:hotpath
func (p *ifacePick) pick(st *loopState) int {
	if p.live != st.live {
		p.rebind(st.live)
	}
	return p.live.ID(p.pk.Pick(st.std, p.q))
}

func (p *ifacePick) rebind(live *workload.Live) {
	pk, err := live.NewPicker(p.pol)
	if err != nil {
		panic("sim: unresolved wiring: " + err.Error())
	}
	p.live, p.pk = live, pk
}

// adapterPicker builds the adapter for a policy; a churn-free stream gets
// the all-up snapshot here, where rank and id coincide.
func (st *loopState) adapterPicker(pol workload.Policy) picker {
	if st.live == nil {
		st.live = workload.NewLive(len(st.qlen))
	}
	return &ifacePick{pol: pol, q: farm{st}}
}
