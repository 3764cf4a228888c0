package lb

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"finitelb/internal/minindex"
	"finitelb/internal/trace"
	"finitelb/internal/workload"
)

// planeView is a plain workload.WorkQueues over two slices: the reference
// farm of the survivors, with nothing down and nothing masked.
type planeView struct {
	lens []int
	work []float64
}

func (v *planeView) N() int             { return len(v.lens) }
func (v *planeView) Len(i int) int      { return v.lens[i] }
func (v *planeView) Work(i int) float64 { return v.work[i] }

// TestDegradedPickIsPolicyOnSurvivors pins the one rule of the failure
// domain at pick level, without a clock: on N = 10 with servers {3, 4, 7}
// down, the targets admit picks are exactly live.ID(rank) for the ranks a
// fresh Policy.NewPicker(7) picks on the same seed over a plain 7-entry
// view. The dispatcher is borrowed before the crashes, so the test also
// covers admit noticing the new snapshot and rebuilding its picker. Down
// servers are shown idle in the table — the most attractive state there
// is — and must still never be read. Nothing is sent to a server: admit
// stops at the reservation, and the table is rewritten every step.
func TestDegradedPickIsPolicyOnSurvivors(t *testing.T) {
	const n = 10
	for _, spec := range []string{"sqd:2", "jsq", "lwl", "rr", "random"} {
		pol, err := workload.ParsePolicy(spec)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := New(Config{N: n, Policy: pol, MeanService: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		d := lb.dispatcherAt(time.Unix(0, 0))
		d.rng = rand.New(rand.NewPCG(9, 9))
		for _, i := range []int{3, 4, 7} {
			if err := lb.Crash(i); err != nil {
				t.Fatal(err)
			}
		}
		live := lb.live.Load()
		ref, err := pol.NewPicker(live.Alive())
		if err != nil {
			t.Fatal(err)
		}
		refRng := rand.New(rand.NewPCG(9, 9))
		plain := &planeView{lens: make([]int, live.Alive()), work: make([]float64, live.Alive())}
		state := rand.New(rand.NewPCG(21, 4))
		for step := 0; step < 5000; step++ {
			for id := 0; id < n; id++ {
				r := live.Rank(id)
				if r < 0 {
					lb.slots[id].qlen.Store(0)
					lb.slots[id].pending.Store(0)
					continue
				}
				l, w := state.IntN(4), state.Int64N(5_000_000)
				lb.slots[id].qlen.Store(int32(l))
				lb.slots[id].pending.Store(w)
				plain.lens[r], plain.work[r] = l, float64(w)/lb.meanServiceNs
			}
			j := job{work: 1, trace: trace.None}
			got, err := lb.admit(d, &j)
			if err != nil {
				t.Fatal(err)
			}
			if want := live.ID(ref.Pick(refRng, plain)); got != want {
				t.Fatalf("%s step %d: dispatcher picked server %d, %v on the 7 survivors picks %d", spec, step, got, pol, want)
			}
		}
		for id := 0; id < n; id++ {
			lb.slots[id].qlen.Store(0)
			lb.slots[id].pending.Store(0)
		}
		mustShutdown(t, lb)
	}
}

// TestConcurrentDispatchAcrossMembershipFlips hammers Dispatch from
// several goroutines while a flipper crashes and rejoins servers, under a
// scan picker and under the indexed JSQ tree. The ledger must balance,
// and a dispatch that begins while a server is down — the flipper's own,
// between Crash returning and Join — must never be routed to it, however
// many dispatchers are rebuilding their pickers around it. (Whether a
// given *completion* fell inside a down window cannot be read off the
// spans: service starts are stamped on the ideal work clock, and a job
// reserved on the victim just before the crash is legitimately served by
// it after the rejoin.)
func TestConcurrentDispatchAcrossMembershipFlips(t *testing.T) {
	const workers, perWorker = 4, 1000
	for name, cfg := range map[string]Config{
		"sqd-scan": {N: 4},
		"jsq-tree": {N: 2 * minindex.Threshold, Policy: workload.JSQ{}},
	} {
		cfg.MeanService, cfg.QueueCap = 50*time.Microsecond, 32
		lb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < perWorker; k++ {
					for {
						err := lb.Dispatch(1)
						if err == nil {
							break
						}
						if !errors.Is(err, ErrQueueFull) {
							t.Error(err)
							return
						}
						runtime.Gosched()
					}
				}
			}()
		}
		dispatched := make(chan struct{})
		go func() { wg.Wait(); close(dispatched) }()

		flips, own := 0, int64(0)
	flipping:
		for {
			select {
			case <-dispatched:
				break flipping
			default:
			}
			v := flips % cfg.N
			if err := lb.Crash(v); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				target, err := lb.submit(1, nil, nil)
				if err == nil {
					own++
				} else if !errors.Is(err, ErrQueueFull) {
					t.Fatal(err)
				}
				if target == v {
					t.Fatalf("%s: flip %d: a dispatch begun while server %d was down was routed to it", name, flips, v)
				}
			}
			if err := lb.Join(v); err != nil {
				t.Fatal(err)
			}
			flips++
		}
		conserve(t, lb, mustShutdown(t, lb))
		if got, want := lb.accepted.Load(), workers*perWorker+own; got != want {
			t.Errorf("%s: accepted %d dispatches, want %d", name, got, want)
		}
		if flips == 0 {
			t.Errorf("%s: no membership flip overlapped the dispatch", name)
		}
		t.Logf("%s: %d flips, %+v", name, flips, lb.Recorder().Outcomes())
	}
}

func TestDurationNsSaturates(t *testing.T) {
	for _, c := range []struct {
		ns   float64
		want time.Duration
	}{
		{0, 0},
		{1.9, 1},
		{-1.9, -1},
		{2.5e6, 2500 * time.Microsecond},
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
		{1e9 * 1e10, math.MaxInt64},                      // work 1e9 at -mean-service 10s
		{math.MaxInt64, math.MaxInt64},                   // rounds to 2⁶³, one past the range
		{math.Nextafter(1<<63, 0), 1<<63 - 1024},         // largest float64 inside the range
		{-(1 << 63), math.MinInt64},                      // exactly representable, exactly the floor
		{math.Nextafter(-(1 << 63), 0), -(1<<63 - 1024)}, // first float64 above the floor
		{math.Nextafter(-(1 << 63), math.Inf(-1)), math.MinInt64},
	} {
		if got := durationNs(c.ns); got != c.want {
			t.Errorf("durationNs(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestAbsurdSlowFactorKeepsJobInService: a slow factor whose service
// duration overflows int64 nanoseconds must leave the job in service —
// the unchecked conversion wrapped to MinInt64, a deadline in the past,
// and the degraded server finished every job instantly. The job is then
// rescued (factor cleared, server crashed, redelivered to the healthy
// neighbour) so the farm can drain.
func TestAbsurdSlowFactorKeepsJobInService(t *testing.T) {
	lb, err := New(fastCfg(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := lb.SetSlow(i, 1e300); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan Done, 1)
	target, err := lb.submit(1, done, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-done:
		t.Fatalf("a job slowed 1e300× completed: %+v", d)
	case <-time.After(20 * time.Millisecond):
	}
	if got := lb.QueueLens()[target]; got != 1 {
		t.Errorf("server %d holds %d jobs, want the one still in service", target, got)
	}
	for i := 0; i < 2; i++ {
		if err := lb.SetSlow(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := lb.Crash(target); err != nil {
		t.Fatal(err)
	}
	if d := <-done; d.Dropped || d.Server != 1-target {
		t.Errorf("rescued job finished as %+v, want served by server %d", d, 1-target)
	}
	conserve(t, lb, mustShutdown(t, lb))
}
