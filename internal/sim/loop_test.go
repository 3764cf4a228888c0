package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"finitelb/internal/frand"
	"finitelb/internal/sqd"
	"finitelb/internal/stats"
	"finitelb/internal/workload"
)

// The event loop re-derives every built-in law and policy as concrete
// code; these tests pin each re-derivation — and whole runs — to the
// interface implementations, draw for draw.

// testWiring pairs Options with a heterogeneous-speed marker.
type testWiring struct {
	opts Options
	het  bool
}

// testWirings is the built-in matrix the equivalence tests sweep:
// every arrival law × a service spread × every policy appears at least
// once, including the work-aware path and heterogeneous speeds.
func testWirings(t *testing.T) map[string]testWiring {
	t.Helper()
	pareto, err := workload.NewBoundedPareto(1.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]testWiring{
		"default":        {},
		"det-erlang-jsq": {opts: Options{Arrival: workload.DeterministicArrivals{}, Service: workload.ErlangService{K: 3}, Policy: workload.JSQ{}}},
		"erlang-det-jiq": {opts: Options{Arrival: workload.ErlangArrivals{K: 2}, Service: workload.DeterministicService{}, Policy: workload.JIQ{}}},
		"hyper-pareto":   {opts: Options{Arrival: workload.HyperExp{CV2: 6}, Service: pareto, Policy: workload.Random{}}},
		"rr":             {opts: Options{Arrival: workload.Poisson{}, Policy: workload.RoundRobin{}}},
		"lwl-pareto":     {opts: Options{Service: pareto, Policy: workload.LWL{}}},
		"lwl-exp-het":    {opts: Options{Policy: workload.LWL{}}, het: true},
		"sqd-het":        {het: true},
	}
}

// runAdapterStream drives a wiring through the event loop with every
// piece behind its workload-interface adapter — the instantiation a
// user-supplied arrival process, service law and policy would get.
func runAdapterStream(p sqd.Params, w wiring, jobs, warmup, batchSize int64, seed uint64) *stats.Stream {
	res := newSimStream(batchSize)
	st := newLoopState(p, w, warmup, res, seed)
	bindLoop(st, st.adapterArr(w), ifaceSvc{svc: w.service, std: st.std}, st.adapterPicker(w.policy))(jobs)
	return res
}

// TestTypedLoopMatchesInterfaceLoop is the master regression of the
// concrete samplers and pickers: for every built-in wiring, at sizes below
// and above the minindex threshold (so scan and tree pickers are both
// exercised), the concrete instantiation of the loop and the adapter
// instantiation — every draw through the workload interfaces — must
// produce bit-identical Results: same draws, same arithmetic, different
// dispatch cost only.
func TestTypedLoopMatchesInterfaceLoop(t *testing.T) {
	for name, tw := range testWirings(t) {
		// 6: scan pickers; 100: indexed pickers (≥ minindex.Threshold);
		// 600: a farm well past the threshold.
		for _, n := range []int{6, 100, 600} {
			p := sqd.Params{N: n, D: 2, Rho: 0.85}
			o := tw.opts
			o.Jobs, o.Seed = 4000, 77
			if tw.het {
				o.Speeds = make([]float64, n)
				for i := range o.Speeds {
					o.Speeds[i] = 1 + float64(i%3)
				}
			}
			o.setDefaults()
			w, err := resolve(p, o)
			if err != nil {
				t.Fatalf("%s/N=%d: %v", name, n, err)
			}
			tr := newTypedRunner(p, w, o.Warmup, newSimStream(o.BatchSize), o.Seed)
			tr.run(o.Jobs)
			typed := result(tr.st.res)
			iface := result(runAdapterStream(p, w, o.Jobs, o.Warmup, o.BatchSize, o.Seed))
			if typed != iface {
				t.Errorf("%s/N=%d: concrete instantiation diverged from the adapter one:\ntyped %+v\niface %+v", name, n, typed, iface)
			}
		}
	}
}

// TestSamplersMatchWorkload pins each concrete sampler to its workload
// source/service over a long shared-seed draw sequence — any divergence
// in draw count, order, or arithmetic shows immediately.
func TestSamplersMatchWorkload(t *testing.T) {
	// rate must be a variable: a constant 1/rate would fold at compile
	// time under exact arithmetic, while the resolver divides at run time.
	rate := 3.7
	pareto, err := workload.NewBoundedPareto(2.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	he := workload.HyperExp{CV2: 4}
	p1, l1, l2 := he.Phases(rate)

	arrivals := []struct {
		law     workload.Arrival
		sampler func(fr *frand.RNG) float64
	}{
		{workload.Poisson{}, poissonArr{rate: rate}.next},
		{workload.DeterministicArrivals{}, constArr{gap: 1 / rate}.next},
		{workload.ErlangArrivals{K: 4}, erlangArr{k: 4, phaseRate: 4 * rate}.next},
		{he, hyperArr{p: p1, l1: l1, l2: l2}.next},
	}
	for _, tc := range arrivals {
		src, err := tc.law.NewSource(rate)
		if err != nil {
			t.Fatal(err)
		}
		std := rand.New(rand.NewPCG(5, 7))
		fr := frand.New(5, 7)
		for i := 0; i < 50_000; i++ {
			if a, b := src.Next(std), tc.sampler(fr); a != b {
				t.Fatalf("%v draw %d: source %v != sampler %v", tc.law, i, a, b)
			}
		}
	}

	services := []struct {
		law     workload.Service
		sampler func(fr *frand.RNG) float64
	}{
		{workload.Exponential{}, expSvc{}.sample},
		{workload.DeterministicService{}, detSvc{}.sample},
		{workload.ErlangService{K: 5}, erlangSvc{k: 5, kf: 5}.sample},
		{pareto, paretoSvc{p: pareto}.sample},
	}
	for _, tc := range services {
		std := rand.New(rand.NewPCG(11, 13))
		fr := frand.New(11, 13)
		for i := 0; i < 50_000; i++ {
			if a, b := tc.law.Sample(std), tc.sampler(fr); a != b {
				t.Fatalf("%v draw %d: Sample %v != sampler %v", tc.law, i, a, b)
			}
		}
	}
}

// queuesOverState adapts a loopState to workload.Queues/WorkQueues so
// the interface pickers can be driven against the same farm the sim
// pickers read.
type queuesOverState struct{ st *loopState }

func (q queuesOverState) N() int        { return len(q.st.qlen) }
func (q queuesOverState) Len(i int) int { return int(q.st.qlen[i]) }
func (q queuesOverState) Work(i int) float64 {
	return q.st.workAt(i)
}

// TestPickersMatchWorkload drives each scan picker pair — concrete sim
// picker vs interface workload picker — through randomized farm states
// with shared-seed generators, comparing every routing decision. Tree
// pickers are covered end to end by TestTypedLoopMatchesInterfaceLoop.
func TestPickersMatchWorkload(t *testing.T) {
	const n = 23
	mk := func() (*loopState, *rand.Rand, *rand.Rand) {
		st := &loopState{
			qlen:    make([]int32, n),
			servers: make([]server, n),
			speeds:  make([]float64, n),
			fr:      frand.New(3, 9),
			trk:     newTourTracker(n),
		}
		for i := range st.speeds {
			st.speeds[i] = 1 + float64(i%2)
		}
		// Shared state generator (same seed both sides) plus the
		// interface picker's own draw stream, bit-shared with st.fr.
		return st, rand.New(rand.NewPCG(21, 4)), rand.New(rand.NewPCG(3, 9))
	}
	cases := []struct {
		name string
		pol  workload.Policy
		mkPk func(st *loopState) picker
	}{
		{"sqd", workload.SQD{D: 3}, func(st *loopState) picker {
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			return &sqdPick{d: 3, perm: perm}
		}},
		{"jsq-scan", workload.JSQ{}, func(*loopState) picker { return jsqScanPick{} }},
		{"lwl-scan", workload.LWL{}, func(*loopState) picker { return lwlScanPick{} }},
		{"jiq", workload.JIQ{}, func(*loopState) picker { return jiqPick{} }},
		{"rr", workload.RoundRobin{}, func(*loopState) picker { return &rrPick{n: n} }},
		{"random", workload.Random{}, func(*loopState) picker { return randPick{n: n} }},
	}
	for _, tc := range cases {
		st, stateRng, stdPick := mk()
		wp, err := tc.pol.NewPicker(n)
		if err != nil {
			t.Fatal(err)
		}
		sp := tc.mkPk(st)
		q := queuesOverState{st: st}
		for step := 0; step < 20_000; step++ {
			// Randomize the farm: lengths, and for LWL the work state.
			for i := 0; i < n; i++ {
				l := int32(stateRng.IntN(4))
				st.qlen[i] = l
				sv := &st.servers[i]
				sv.head, sv.tail = 0, uint32(l)
				if l == 0 {
					st.trk.update(i, math.Inf(1))
					sv.pending = 0
				} else {
					st.trk.update(i, st.now+stateRng.Float64()*2)
					sv.pending = stateRng.Float64() * float64(l)
				}
			}
			st.now = float64(step) * 0.01
			a := wp.Pick(stdPick, q)
			b := sp.pick(st)
			if a != b {
				t.Fatalf("%s step %d: interface picker chose %d, sim picker chose %d", tc.name, step, a, b)
			}
		}
	}
}

// TestExoticWiringMatchesBuiltin: a user-supplied implementation of a
// workload interface rides the loop behind an adapter, and must produce
// bit-identical results when it delegates to a built-in law.
func TestExoticWiringMatchesBuiltin(t *testing.T) {
	p := sqd.Params{N: 12, D: 2, Rho: 0.8}
	builtin, err := Run(p, Options{Jobs: 5000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	exotic, err := Run(p, Options{Jobs: 5000, Seed: 31, Arrival: wrappedPoisson{}})
	if err != nil {
		t.Fatal(err)
	}
	if builtin != exotic {
		t.Errorf("exotic delegating wiring drifted from built-in:\nexotic  %+v\nbuiltin %+v", exotic, builtin)
	}
}

// wrappedPoisson is an "exotic" arrival process that happens to delegate
// to Poisson — unknown type to bindArr, identical draws.
type wrappedPoisson struct{}

func (wrappedPoisson) NewSource(rate float64) (workload.Source, error) {
	return workload.Poisson{}.NewSource(rate)
}
func (wrappedPoisson) String() string { return "wrapped-poisson" }

// TestTypedChunkedRuns: driving a typed runner in many small chunks must
// be bit-identical to one uninterrupted run — the property the
// allocation-regression guard leans on.
func TestTypedChunkedRuns(t *testing.T) {
	p := sqd.Params{N: 40, D: 2, Rho: 0.85}
	for name, opts := range map[string]Options{
		"default": {Jobs: 6000, Seed: 5},
		"lwl":     {Jobs: 6000, Seed: 5, Policy: workload.LWL{}},
	} {
		opts.setDefaults()
		w, err := resolve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		one := newTypedRunner(p, w, opts.Warmup, newSimStream(opts.BatchSize), opts.Seed)
		one.run(opts.Jobs)
		chunked := newTypedRunner(p, w, opts.Warmup, newSimStream(opts.BatchSize), opts.Seed)
		for j := int64(500); j <= opts.Jobs; j += 500 {
			chunked.run(j)
		}
		if a, b := result(one.st.res), result(chunked.st.res); a != b {
			t.Errorf("%s: chunked stream drifted from one-shot:\nchunked %+v\noneshot %+v", name, b, a)
		}
	}
}

// TestAllocFreeEventPath is the allocation-regression guard of the event
// loop: after warmup (rings grown, buffers sized), the default, indexed
// and work-aware event paths must run allocation-free. BatchSize exceeds
// the measured jobs so no batch-means append lands mid-chunk, and the
// sketch/ring growth all happens in the warm phase. The churn rows arm a
// schedule that fires entirely inside the warm phase (churn events
// themselves may allocate) and leaves the farm degraded and slowed, so
// the measured chunks run the rank-view picks and the slow multiply.
func TestAllocFreeEventPath(t *testing.T) {
	pareto, err := workload.NewBoundedPareto(1.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := workload.ParseChurn("crash@20@s=1,leave@40@s=2,slow@60@s=3@f=2,restore@80@s=1")
	if err != nil {
		t.Fatal(err)
	}
	// The N=10⁴ cases pin the floor at the size where setup amortization
	// once read as 1–2 B/op (see BenchmarkSimJobs).
	for name, tc := range map[string]struct {
		opts  Options
		n     int
		churn bool
	}{
		"default":            {opts: Options{Seed: 3}, n: 100},
		"jsq-indexed":        {opts: Options{Seed: 3, Policy: workload.JSQ{}}, n: 100},
		"lwl-work-aware":     {opts: Options{Seed: 3, Service: pareto, Policy: workload.LWL{}}, n: 100},
		"jsq-indexed-10k":    {opts: Options{Seed: 3, Policy: workload.JSQ{}}, n: 10_000},
		"lwl-work-aware-10k": {opts: Options{Seed: 3, Service: pareto, Policy: workload.LWL{}}, n: 10_000},
		"default-churn":      {opts: Options{Seed: 3}, n: 100, churn: true},
		"jsq-indexed-churn":  {opts: Options{Seed: 3, Policy: workload.JSQ{}}, n: 100, churn: true},
	} {
		p := sqd.Params{N: tc.n, D: 2, Rho: 0.9}
		opts := tc.opts
		opts.Jobs = 1 << 30 // never reached; chunks drive the stream
		opts.BatchSize = 1 << 40
		if tc.churn {
			opts.Churn = churn
		}
		opts.setDefaults()
		w, err := resolve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTypedRunner(p, w, 0, newSimStream(opts.BatchSize), opts.Seed)
		jobs := int64(50_000) // warm: grow rings, touch tail-estimator state
		tr.run(jobs)
		if tc.churn && (len(tr.st.churn) != 0 || tr.st.live.Alive() == tc.n) {
			t.Fatalf("%s: schedule did not fire in the warm phase (%d events left, %d alive)", name, len(tr.st.churn), tr.st.live.Alive())
		}
		const chunk = 10_000
		avg := testing.AllocsPerRun(5, func() {
			jobs += chunk
			tr.run(jobs)
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per %d-job chunk, want 0", name, avg, chunk)
		}
	}
}
