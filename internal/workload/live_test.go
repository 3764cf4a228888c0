package workload

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

func members(l *Live) []int {
	ids := make([]int, l.Alive())
	for r := range ids {
		ids[r] = l.ID(r)
	}
	return ids
}

// TestLiveMatchesNaiveModel drives seeded random Without/With sequences
// against a []bool membership model: the same calls must be refused, and
// after every step the snapshot must list exactly the model's up servers,
// ascending, with Rank the inverse of ID. Refused calls and superseded
// snapshots must leave what they were called on untouched.
func TestLiveMatchesNaiveModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x6c697665))
		n := 1 + rng.IntN(12)
		up := make([]bool, n)
		for i := range up {
			up[i] = true
		}
		alive := n
		live := NewLive(n)
		for step := 0; step < 400; step++ {
			id := rng.IntN(n+2) - 1 // −1 and n probe the range check
			takeDown := rng.IntN(2) == 0
			inRange := id >= 0 && id < n
			// The model's verdict, in the rulebook's order; "" accepts.
			var reason string
			switch {
			case !inRange:
				reason = "outside the farm"
			case takeDown && !up[id]:
				reason = "already down"
			case takeDown && alive == 1:
				reason = "last live server"
			case !takeDown && up[id]:
				reason = "already up"
			}
			prev, before := live, members(live)
			var next *Live
			var err error
			if takeDown {
				next, err = live.Without(id)
			} else {
				next, err = live.With(id)
			}
			if (err == nil) != (reason == "") || err != nil && !strings.Contains(err.Error(), reason) {
				t.Fatalf("seed %d step %d: takeDown=%v id=%d on %v: err = %v, model says %q", seed, step, takeDown, id, up, err, reason)
			}
			if !slices.Equal(members(prev), before) {
				t.Fatalf("seed %d step %d: the call mutated its receiver: %v → %v", seed, step, before, members(prev))
			}
			if err != nil {
				if next != nil {
					t.Fatalf("seed %d step %d: refusal returned a snapshot", seed, step)
				}
				continue
			}
			up[id] = !takeDown
			if takeDown {
				alive--
			} else {
				alive++
			}
			live = next

			if live.Size() != n || live.Alive() != alive {
				t.Fatalf("seed %d step %d: Size/Alive = %d/%d, want %d/%d", seed, step, live.Size(), live.Alive(), n, alive)
			}
			r := 0
			for i, isUp := range up {
				switch {
				case !isUp && live.Rank(i) != -1:
					t.Fatalf("seed %d step %d: down server %d has rank %d", seed, step, i, live.Rank(i))
				case isUp && (live.Rank(i) != r || live.ID(r) != i):
					t.Fatalf("seed %d step %d: up server %d: Rank = %d, ID(%d) = %d", seed, step, i, live.Rank(i), r, live.ID(r))
				}
				if isUp {
					r++
				}
			}
		}
	}
}

// TestLiveNewPickerClampsSQD: a farm degraded below d samples every
// survivor; every other policy is simply instantiated on Alive() servers.
func TestLiveNewPickerClampsSQD(t *testing.T) {
	live := NewLive(4)
	for _, id := range []int{0, 2, 3} {
		var err error
		if live, err = live.Without(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, pol := range []Policy{SQD{D: 3}, JSQ{}, JIQ{}, LWL{}, RoundRobin{}, Random{}} {
		pk, err := live.NewPicker(pol)
		if err != nil {
			t.Fatalf("%v on one survivor: %v", pol, err)
		}
		rng := rand.New(rand.NewPCG(1, 1))
		for i := 0; i < 5; i++ {
			if r := pk.Pick(rng, workView{lens: []int{7}, works: []float64{1}}); r != 0 {
				t.Fatalf("%v picked rank %d on a one-server farm", pol, r)
			}
		}
	}
}
