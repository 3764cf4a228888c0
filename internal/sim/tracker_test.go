package sim

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"testing"
)

// The retired trackers live on here as reference oracles: the tournament
// tree must agree with both on every (min, update) sequence.
// refHeapTracker is the pre-overhaul container/heap binary heap verbatim;
// refLinearTracker is the pre-overhaul scan.

type refHeapTracker struct {
	times []float64
	ids   []int
	pos   []int
}

func newRefHeapTracker(n int) *refHeapTracker {
	h := &refHeapTracker{
		times: make([]float64, n),
		ids:   make([]int, n),
		pos:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		h.times[i] = math.Inf(1)
		h.ids[i] = i
		h.pos[i] = i
	}
	return h
}

func (h *refHeapTracker) Len() int           { return len(h.times) }
func (h *refHeapTracker) Less(i, j int) bool { return h.times[i] < h.times[j] }
func (h *refHeapTracker) Swap(i, j int) {
	h.times[i], h.times[j] = h.times[j], h.times[i]
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]], h.pos[h.ids[j]] = i, j
}
func (h *refHeapTracker) Push(any) { panic("sim: fixed-size heap") }
func (h *refHeapTracker) Pop() any { panic("sim: fixed-size heap") }

func (h *refHeapTracker) update(id int, t float64) {
	i := h.pos[id]
	h.times[i] = t
	heap.Fix(h, i)
}

func (h *refHeapTracker) min() (float64, int) { return h.times[0], h.ids[0] }

type refLinearTracker struct{ completion []float64 }

func (l *refLinearTracker) update(id int, t float64) { l.completion[id] = t }

func (l *refLinearTracker) min() (float64, int) {
	best, id := math.Inf(1), -1
	for i := range l.completion {
		if l.completion[i] < best {
			best, id = l.completion[i], i
		}
	}
	return best, id
}

// TestTrackerMatchesReferences drives the tournament tree, the old binary
// heap, and the old linear scan through the same randomized (min, update)
// sequences — fresh finite times on idle servers (the arrival pattern, and
// the way a restored server comes back), re-keys of the current min onward
// or to +Inf (the departure and drain patterns), and +Inf re-keys of a
// busy server that is *not* the min (the churn pattern: a crash takes a
// server out mid-service) — and requires identical min answers
// throughout. Times are continuous draws, so ties (where the
// implementations may legitimately order differently) have probability
// zero; sizes cover the singleton, one-level trees full and partly
// padded (2, 3, 4), the first two-level trees (5, 8, 9) and deeper ones.
func TestTrackerMatchesReferences(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 100, 600} {
		rng := rand.New(rand.NewPCG(uint64(n), 0xabcdef))
		subject := newTourTracker(n)
		refH := newRefHeapTracker(n)
		refL := &refLinearTracker{completion: make([]float64, n)}
		for i := range refL.completion {
			refL.completion[i] = math.Inf(1)
		}
		clock := 0.0
		busy, crashes := 0, 0
		for step := 0; step < 20_000; step++ {
			var id int
			var tm float64
			switch u := rng.Float64(); {
			case busy == 0 || (busy < n && u < 0.45):
				// "Arrival": give a random idle server a finite completion.
				id = rng.IntN(n)
				if !math.IsInf(refL.completion[id], 1) {
					continue
				}
				clock += rng.Float64()
				tm = clock + rng.ExpFloat64()
				busy++
			case busy > 1 && u > 0.9:
				// "Crash": idle a busy server other than the current min.
				_, minID := subject.min()
				id = rng.IntN(n)
				if id == minID || math.IsInf(refL.completion[id], 1) {
					continue
				}
				tm = math.Inf(1)
				busy--
				crashes++
			default:
				// "Departure": re-key the current min — onward or to idle.
				_, id = subject.min()
				if rng.Float64() < 0.3 {
					tm = math.Inf(1)
					busy--
				} else {
					clock += rng.Float64()
					tm = clock + rng.ExpFloat64()
				}
			}
			subject.update(id, tm)
			refH.update(id, tm)
			refL.update(id, tm)

			st, si := subject.min()
			ht, hi := refH.min()
			lt, li := refL.min()
			if busy == 0 {
				// All idle: times agree at +Inf, ids are unspecified.
				if !math.IsInf(st, 1) || !math.IsInf(ht, 1) || !math.IsInf(lt, 1) {
					t.Fatalf("N=%d step %d: idle farm with finite min", n, step)
				}
				continue
			}
			if st != ht || st != lt || si != hi || si != li {
				t.Fatalf("N=%d step %d: trackers disagree: tree (%v,%d) heap2 (%v,%d) linear (%v,%d)",
					n, step, st, si, ht, hi, lt, li)
			}
		}
		if n > 1 && crashes == 0 {
			t.Errorf("N=%d: the non-minimum +Inf re-key was never exercised", n)
		}
	}
}

// TestTrackerAllIdleReportsInf pins the contract the event loop relies on
// at stream start: an all-idle farm must report +Inf so the first arrival
// always wins the time race.
func TestTrackerAllIdleReportsInf(t *testing.T) {
	for _, n := range []int{1, 4, 5, 100} {
		tm, _ := newTourTracker(n).min()
		if !math.IsInf(tm, 1) {
			t.Errorf("N=%d: fresh tracker min = %v, want +Inf", n, tm)
		}
	}
}

// TestTrackerTiesGoToLowestID pins the tie rule — the first child wins at
// every level, so among equal keys the lowest server id is reported, the
// linear scan's rule. Continuous service laws never tie; deterministic
// arrivals with deterministic service do, and the order of simultaneous
// departures then decides the order sojourns are summed in.
func TestTrackerTiesGoToLowestID(t *testing.T) {
	for _, n := range []int{2, 5, 9, 100} {
		trk := newTourTracker(n)
		for i := n - 1; i >= 0; i-- {
			trk.update(i, 7)
		}
		for want := 0; want < n; want++ {
			if tm, id := trk.min(); tm != 7 || id != want {
				t.Fatalf("N=%d: min = (%v,%d), want (7,%d)", n, tm, id, want)
			}
			trk.update(want, math.Inf(1))
		}
	}
}
