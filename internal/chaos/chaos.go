// Package chaos turns churn schedules (internal/workload's churn: spec)
// into fully-resolved, deterministic fault-injection plans. It is the
// seeded half of the failure domain: a spec may leave event targets
// unassigned ("crash@t=500" — crash *someone*), and Resolve picks the
// victims through internal/frand so the same (spec, seed, N) always
// yields the same plan, bit for bit, on every host. The package is in
// the finitelint deterministic set — no wall clock, no global rand — so
// a chaos run is reproducible evidence: the simulator replays the exact
// schedule the live farm suffered, and a failing chaos test names a
// seed that fails everywhere.
//
// The package only plans; execution belongs to the engines. internal/sim
// applies events on model time inside the event loop, internal/lb's
// RunChurn applies them on the wall clock scaled by the farm's mean
// service time.
package chaos

import (
	"fmt"

	"finitelb/internal/frand"
	"finitelb/internal/workload"
)

// chaosStream salts the frand seed so victim picks are independent of
// any simulation stream derived from the same seed.
const chaosStream = 0x6368616f73 // "chaos"

// Resolve assigns a target server to every unassigned event of c,
// deterministically in (c, seed, n), and validates the schedule against
// a farm of n servers. Victims are drawn uniformly from the eligible
// set at the event's position in the schedule: crash/leave pick among
// servers currently up, restore picks among servers currently down,
// slow/stall pick among servers currently up. Resolve rejects schedules
// that reference servers outside [0, n), slow or stall a down server, or
// break a membership rule of workload.Live — down a server twice without
// a restore, restore a server that is up, take down the last live server
// (the engines assume at least one at all times).
//
// The returned slice is a fresh copy sorted by time; c is not modified.
func Resolve(c *workload.Churn, seed uint64, n int) ([]workload.ChurnEvent, error) {
	if c == nil || len(c.Events) == 0 {
		return nil, nil
	}
	if n < 1 {
		return nil, fmt.Errorf("chaos: need n ≥ 1 servers, got %d", n)
	}
	rng := frand.New(seed, chaosStream)
	live := workload.NewLive(n)
	out := make([]workload.ChurnEvent, len(c.Events))
	copy(out, c.Events)
	for i := range out {
		ev := &out[i]
		if ev.Server >= n {
			return nil, fmt.Errorf("chaos: event %v targets server %d of a %d-server farm", ev, ev.Server, n)
		}
		var err error
		switch ev.Kind {
		case workload.ChurnCrash, workload.ChurnLeave:
			if ev.Server < 0 {
				ev.Server = live.ID(rng.IntN(live.Alive()))
			}
			live, err = live.Without(ev.Server)
		case workload.ChurnRestore:
			if ev.Server < 0 {
				if ev.Server = pickDown(rng, live); ev.Server < 0 {
					return nil, fmt.Errorf("chaos: event %v has no down server to restore", ev)
				}
			}
			live, err = live.With(ev.Server)
		case workload.ChurnSlow, workload.ChurnStall:
			if ev.Server < 0 {
				ev.Server = live.ID(rng.IntN(live.Alive()))
			}
			if live.Rank(ev.Server) < 0 {
				return nil, fmt.Errorf("chaos: event %v targets a server that is down", ev)
			}
		case workload.ChurnPause, workload.ChurnResume:
			// Dispatcher-wide; nothing to resolve.
		default:
			return nil, fmt.Errorf("chaos: event %v has unknown kind", ev)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: event %v: %w", ev, err)
		}
	}
	return out, nil
}

// pickDown draws uniformly among the down servers, or returns −1 (and
// draws nothing) when every server is up. One rng draw per victim —
// like the up-server picks, which are a uniform rank of the live
// snapshot — so resolution stays reproducible event for event.
func pickDown(rng *frand.RNG, live *workload.Live) int {
	down := live.Size() - live.Alive()
	if down == 0 {
		return -1
	}
	k := rng.IntN(down)
	for id := 0; ; id++ {
		if live.Rank(id) < 0 {
			if k == 0 {
				return id
			}
			k--
		}
	}
}
