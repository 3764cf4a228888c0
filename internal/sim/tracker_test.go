package sim

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"testing"
)

// The retired trackers live on here as reference oracles: the shipped
// tracker must agree with both on every (min, update) sequence.
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

// TestTrackerMatchesReferences drives the shipped tracker, the old binary
// heap, and the old linear scan through the same randomized (min, update)
// sequences — a mix of fresh finite times, re-keys of the current min
// (the departure pattern), and +Inf idles (the drain pattern) — and
// requires identical min answers throughout. Times are continuous draws,
// so ties (where the implementations may legitimately order differently)
// have probability zero; sizes straddle every structural boundary:
// singleton, the linearCutoff crossover (8/9 by the new constant, 16/17
// by the old one), the first multi-level 4-ary trees, and a large farm.
func TestTrackerMatchesReferences(t *testing.T) {
	for _, n := range []int{1, 2, 8, 9, 16, 17, 64, 1000} {
		rng := rand.New(rand.NewPCG(uint64(n), 0xabcdef))
		subject := newTrackerFor(n, false)
		tour := newTourTracker(n) // exercise tree mode below the cutoff too
		refH := newRefHeapTracker(n)
		refL := &refLinearTracker{completion: make([]float64, n)}
		for i := range refL.completion {
			refL.completion[i] = math.Inf(1)
		}
		clock := 0.0
		busy := 0
		for step := 0; step < 20_000; step++ {
			var id int
			var tm float64
			switch {
			case busy == 0 || (busy < n && rng.Float64() < 0.5):
				// "Arrival": give a random idle server a finite completion.
				id = rng.IntN(n)
				if !math.IsInf(refL.completion[id], 1) {
					continue
				}
				clock += rng.Float64()
				tm = clock + rng.ExpFloat64()
				busy++
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
			tour.update(id, tm)
			refH.update(id, tm)
			refL.update(id, tm)

			st, si := subject.min()
			tt, ti := tour.min()
			ht, hi := refH.min()
			lt, li := refL.min()
			if busy == 0 {
				// All idle: times agree at +Inf, ids are unspecified.
				if !math.IsInf(st, 1) || !math.IsInf(ht, 1) || !math.IsInf(lt, 1) || !math.IsInf(tt, 1) {
					t.Fatalf("N=%d step %d: idle farm with finite min", n, step)
				}
				continue
			}
			if st != ht || st != lt || st != tt || si != hi || si != li || si != ti {
				t.Fatalf("N=%d step %d: trackers disagree: subject (%v,%d) tour (%v,%d) heap2 (%v,%d) linear (%v,%d)",
					n, step, st, si, tt, ti, ht, hi, lt, li)
			}
		}
	}
}

// TestTrackerAllIdleReportsInf pins the contract the event loop relies on
// at stream start: an all-idle farm must report +Inf so the first arrival
// always wins the time race.
func TestTrackerAllIdleReportsInf(t *testing.T) {
	for _, n := range []int{1, linearCutoff, linearCutoff + 1, 100} {
		tm, _ := newTrackerFor(n, false).min()
		if !math.IsInf(tm, 1) {
			t.Errorf("N=%d: fresh tracker min = %v, want +Inf", n, tm)
		}
	}
}
