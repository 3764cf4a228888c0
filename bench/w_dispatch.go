package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"finitelb/internal/lb"
	"finitelb/internal/minindex"
	"finitelb/internal/stats"
	"finitelb/internal/workload"
)

// farmSpec is one in-process farm of the dispatch workload.
type farmSpec struct {
	Name   string // suffix of lb.dispatch_ns.<Name>
	Policy string // spec for workload.ParsePolicy
	N      int
	// QueueCap is 4096 at N=100, as the issue sizes it. At N=1000 that
	// would be 1.5 GB of channel buffers, so the large farms take the
	// depth the repository's own contended benchmark uses; backpressure
	// needs depth, not that much of it.
	QueueCap int
}

var (
	dispatchPhases = []farmSpec{{"sqd2_n100", "sqd:2", 100, 4096}, {"jsq_n1000", "jsq", 1000, 256}}
	// Measured in the traced run only. random is the pick-free floor:
	// admit, handoff and record with a one-draw pick.
	dispatchProbes = []farmSpec{{"jiq_n100", "jiq", 100, 4096}, {"lwl_n1000", "lwl", 1000, 256}, {"random_n100", "random", 100, 4096}}
)

const (
	dispatchSetups  = 5
	dispatchWarm    = 1000
	dispatchDoTrips = 200_000
	// dispatchTimedCalls Dispatch calls are timed one by one for the
	// latency figures.
	dispatchTimedCalls = 200_000
)

func newFarm(f farmSpec, seed uint64) (*lb.LB, error) {
	pol, err := workload.ParsePolicy(f.Policy)
	if err != nil {
		return nil, err
	}
	return lb.New(lb.Config{N: f.N, Policy: pol, MeanService: time.Nanosecond, QueueCap: f.QueueCap, Seed: seed})
}

// dispatchOne submits one job, yielding and retrying while the picked
// queue is full — the closed-loop backpressure of the repository's own
// BenchmarkDispatch. It returns the number of refused attempts.
func dispatchOne(farm *lb.LB) (retries int64, err error) {
	for {
		err := farm.Dispatch(1)
		if err == nil {
			return retries, nil
		}
		if !errors.Is(err, lb.ErrQueueFull) {
			return retries, err
		}
		retries++
		runtime.Gosched()
	}
}

// dispatchWindow dispatches from one goroutine for length and returns the
// jobs accepted, the refused attempts, and the time it really took.
func dispatchWindow(farm *lb.LB, length time.Duration) (jobs, retries int64, elapsed time.Duration, err error) {
	t0 := time.Now()
	for {
		// The clock is read once per 256 jobs: a read per job would be a
		// tenth of what is being measured.
		for i := 0; i < 256; i++ {
			r, err := dispatchOne(farm)
			if err != nil {
				return jobs, retries, time.Since(t0), err
			}
			retries += r
			jobs++
		}
		if elapsed = time.Since(t0); elapsed >= length {
			return jobs, retries, elapsed, nil
		}
	}
}

// shutdownChecked drains a farm and checks that it completed exactly the
// jobs dispatched into it.
func shutdownChecked(r *run, farm *lb.LB, name string, dispatched int64) time.Duration {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	st, err := farm.Shutdown(ctx)
	took := time.Since(t0)
	if err != nil {
		r.problem("%s: shutdown: %v", name, err)
	}
	if st.Completed != dispatched || st.Dropped != 0 || st.Abandoned != 0 {
		r.problem("%s: dispatched %d, shutdown reports %d completed, %d dropped, %d abandoned", name, dispatched, st.Completed, st.Dropped, st.Abandoned)
	}
	return took
}

// runDispatchDirect: in-process dispatch, no socket, no service time.
func runDispatchDirect(r *run) error {
	// One P. With two, identical farms dispatch at anything from 2.0 to
	// 3.3 M jobs/s depending on where their memory landed and how producer
	// and servers fell onto the cores, and keep that speed for seconds:
	// run-to-run spread was 10-13%. On one P the producer and the servers
	// take turns, so the figure is the CPU cost of a job through pick,
	// admit, handoff, record and a zero-length service, and it repeats
	// within 2%. The two-core figure is kept as a layer metric.
	cores := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(cores)

	// Set-up is building both farms (N goroutines, channels and recorder
	// shards each) and pushing the first jobs through them.
	farms := make([]*lb.LB, len(dispatchPhases))
	sent := make([]int64, len(dispatchPhases))
	for rep := 0; rep < dispatchSetups; rep++ {
		for i, f := range farms {
			if f != nil {
				shutdownChecked(r, f, dispatchPhases[i].Name, sent[i])
			}
		}
		err := r.setup(func() error {
			for i, spec := range dispatchPhases {
				f, err := newFarm(spec, r.seed)
				if err != nil {
					return err
				}
				farms[i], sent[i] = f, 0
				for j := 0; j < dispatchWarm; j++ {
					if _, err := dispatchOne(f); err != nil {
						return err
					}
					sent[i]++
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	windows := r.alternatingWindows() // one second each, alternating farms
	rates := make([][]float64, len(farms))
	tracedRates := make([][]float64, len(farms))
	var retries, jobs int64
	for w := 0; w < windows; w++ {
		i := w % 2
		recording := r.traced && (w/2)%2 == 0
		r.tr.setRecording(recording)
		var n, rt int64
		var took time.Duration
		var err error
		r.tr.timed(0, "lb.dispatch_window."+dispatchPhases[i].Name, func(uint32) {
			n, rt, took, err = dispatchWindow(farms[i], time.Second)
		})
		if err != nil {
			return err
		}
		sent[i] += n
		jobs += n
		retries += rt
		r.ops(n, 0)
		rate := float64(n) / took.Seconds()
		if recording {
			tracedRates[i] = append(tracedRates[i], rate)
		} else {
			rates[i] = append(rates[i], rate)
		}
	}
	r.tr.setRecording(r.traced)
	a, b := summarize(rates[0]), summarize(rates[1])
	r.set("ops_per_s", geomean(a.Median, b.Median))
	r.detail["ops_per_s"] = fmt.Sprintf("GOMAXPROCS=1; sqd2/N=100 %.4g/s (IQR %.1f%%), jsq/N=1000 %.4g/s (IQR %.1f%%)", a.Median, 100*a.IQR/a.Median, b.Median, 100*b.IQR/b.Median)
	r.set("lb.dispatch_ns.sqd2_n100", 1e9/a.Median)
	r.set("lb.dispatch_ns.jsq_n1000", 1e9/b.Median)
	r.set("lb.queue_full_per_kjob", 1e3*float64(retries)/float64(jobs))
	if r.traced {
		// One span per window: recording costs nothing measurable here,
		// and the figure says so.
		on, off := geomean(median(tracedRates[0]), median(tracedRates[1])), geomean(a.Median, b.Median)
		r.set("harness.trace_overhead_pct.dispatch_direct", 100*(off-on)/off)
	}

	// How long one Dispatch call holds its caller, call by call (two clock
	// reads, about 45 ns, are inside each sample): the latency a user of
	// fire-and-forget dispatch sees. The LB.Do round trip below adds the
	// service and the wake-up of the submitter and is a layer metric.
	calls := make([]float64, 0, dispatchTimedCalls)
	for i := 0; i < dispatchTimedCalls; i++ {
		t0 := time.Now()
		_, err := dispatchOne(farms[0])
		took := time.Since(t0)
		if err != nil {
			return err
		}
		calls = append(calls, float64(took.Nanoseconds())/1e3)
	}
	sent[0] += dispatchTimedCalls
	r.ops(dispatchTimedCalls, 0)
	r.set("latency_p50_us", median(calls))
	tv, tp := tail(calls)
	r.set("latency_tail_us", tv)
	r.detail["latency_tail_us"] = fmt.Sprintf("p%g of %d timed Dispatch calls", tp, len(calls))

	// Round trips: submit, serve, and wake the submitter.
	rtt := make([]float64, 0, dispatchDoTrips)
	ctx := context.Background()
	for i := 0; i < dispatchDoTrips; i++ {
		t0 := time.Now()
		d, err := farms[0].Do(ctx, 1)
		took := time.Since(t0)
		r.ops(1, 0)
		if err != nil || d.Dropped || d.Server < 0 || d.Server >= dispatchPhases[0].N {
			r.ops(0, 1)
			continue
		}
		rtt = append(rtt, float64(took.Nanoseconds()))
	}
	sent[0] += dispatchDoTrips
	r.set("lb.do_rtt_p50_ns", median(rtt))
	r.set("lb.do_rtt_p99_ns", percentile(rtt, 99))

	if r.traced {
		if err := dispatchLayerProbes(r, farms[1], cores); err != nil {
			return err
		}
	}
	for i, f := range farms {
		took := shutdownChecked(r, f, dispatchPhases[i].Name, sent[i])
		if i == 1 {
			r.set("lb.shutdown_ms", float64(took.Microseconds())/1e3)
		}
	}
	r.set("harness.peak_rss_mb", selfRSSMB())
	return nil
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink atomic.Uint64

// perOp times n calls of fn and returns nanoseconds per call, as the
// median of five repeats.
func perOp(n int, fn func(i int)) float64 {
	var reps []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(reps)
}

// probeFarm builds a farm, drives it for half a second, reports the cost of
// a dispatch under metric and shuts the farm down.
func probeFarm(r *run, spec farmSpec, metric string) error {
	f, err := newFarm(spec, r.seed)
	if err != nil {
		return err
	}
	var n int64
	var took time.Duration
	r.tr.timed(0, "lb.dispatch_window."+spec.Name, func(uint32) {
		n, _, took, err = dispatchWindow(f, 500*time.Millisecond)
	})
	if err != nil {
		return err
	}
	r.ops(n, 0)
	r.set(metric, float64(took.Nanoseconds())/float64(n))
	shutdownChecked(r, f, spec.Name, n)
	return nil
}

// dispatchLayerProbes peels the layers under a dispatch: the other
// policies' farms, the recorder, the concurrent min-index and the sketch.
func dispatchLayerProbes(r *run, loaded *lb.LB, cores int) error {
	// The same SQ(2) farm with every core the host has: producer and
	// servers in parallel. Faster, and a lottery (see runDispatchDirect).
	runtime.GOMAXPROCS(cores)
	err := probeFarm(r, dispatchPhases[0], "lb.dispatch_ns.sqd2_n100_allcores")
	runtime.GOMAXPROCS(1)
	if err != nil {
		return err
	}
	for _, spec := range dispatchProbes {
		if err := probeFarm(r, spec, "lb.dispatch_ns."+spec.Name); err != nil {
			return err
		}
	}

	// The recorder of the N=1000 farm, holding the measured phase's jobs.
	rec := loaded.Recorder()
	var snaps []float64
	for i := 0; i < 20; i++ {
		took := r.tr.timed(0, "lb.recorder_snapshot", func(uint32) { sink.Add(uint64(rec.Snapshot().Jobs)) })
		snaps = append(snaps, float64(took.Nanoseconds())/1e3)
	}
	r.set("lb.recorder_snapshot_us", median(snaps))
	r.set("lb.recorder_state_bytes", float64(rec.StateBytes()))

	const n = 1000
	rng := rand.New(rand.NewPCG(r.seed, 1))
	keys := make([]atomic.Uint32, n)
	for i := range keys {
		keys[i].Store(uint32(rng.IntN(8)))
	}
	var tree *minindex.Conc
	r.tr.timed(0, "minindex.conc", func(uint32) {
		tree = minindex.NewConc(n, func(i int) uint32 { return keys[i].Load() })
		r.set("minindex.conc_update_ns", perOp(200_000, func(i int) {
			k := i % n
			keys[k].Store(uint32(i>>3) & 7)
			tree.Update(k)
		}))
		r.set("minindex.conc_argmin_ns", perOp(200_000, func(int) { sink.Add(uint64(tree.Argmin(rng))) }))
	})

	r.tr.timed(0, "stats.sketch", func(uint32) {
		a, b := stats.NewSketch(stats.DefaultAlpha, stats.DefaultSketchBudget), stats.NewSketch(stats.DefaultAlpha, stats.DefaultSketchBudget)
		for i := 0; i < 100_000; i++ {
			a.Add(rng.ExpFloat64())
			b.Add(10 * rng.ExpFloat64())
		}
		r.set("stats.sketch_merge_us", perOp(200, func(int) {
			m := stats.NewSketch(stats.DefaultAlpha, stats.DefaultSketchBudget)
			m.Merge(a)
			m.Merge(b)
			sink.Add(uint64(m.N()))
		})/1e3)
		r.set("stats.sketch_quantile_us", perOp(2000, func(int) { sink.Add(uint64(a.Quantile(0.99))) })/1e3)
	})
	return nil
}
