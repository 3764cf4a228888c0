package main

// The registry is the single list of what the benchmark measures.
// BENCHMARK.json at the repository root mirrors it (a unit test compares
// the two), and a workload can only report a metric that is listed here.

// metricDef describes one metric. Bound is set for end-to-end metrics only.
// On lists the workloads whose traced run measures a per-layer metric; in
// every other workload's traced run it reads 0, meaning "this layer was
// not exercised", which is the no-movement prediction made explicit.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	On     []string
	Help   string
}

type workloadDef struct {
	Name string
	Why  string
	Run  func(*run) error
}

// runSeconds is BENCHMARK.json's run_seconds: the length of the measured
// part of one run. The driver's time cap (4 + 22 × 7 runs inside 3420 s)
// leaves about 21 s per run including set-up, which is what caps it.
const runSeconds = 15

var workloads = []workloadDef{
	{"serve_closed", "zero-work jobs through lbd on a loopback socket, closed loop: parse, draw, Do, JSON and net/http are all the work, so cmd/lbd dominates", runServeClosed},
	{"serve_probe", "lbd holds itself at rho=0.7 with 2ms jobs while an open-loop probe measures latency: sleeper, timers and queueing dominate, HTTP CPU does not", runServeProbe},
	{"dispatch_direct", "in-process LB.Dispatch and LB.Do with 1ns service on one P: the CPU cost of pick, admit, handoff and record, no socket", runDispatchDirect},
	{"sim_paper", "spec strings to sim.Run on the paper wiring (Poisson/exp/SQ(d)) at small and large N: the hand-specialised loop and both trackers", runSimPaper},
	{"sim_pluggable", "sim.Run on JSQ/LWL/JIQ, heavy-tailed, round-robin and churn cells: the typed and interface loops that sim_paper bypasses", runSimPluggable},
	{"solve_grid", "DelayBounds over the Fig. 10 grid, blocks of 6 to 126 states: enumeration, assembly and allocation dominate, not O(m^3) kernels", runSolveGrid},
	{"solve_big", "lbd's startup walk at N=8 rho=0.85, block 330: logarithmic-reduction multiplies and inversions dominate", runSolveBig},
}

// End-to-end metrics. Every workload reports all of them; what "operation"
// means on each workload is in README.md's glossary.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "median set-up time: child start to first measured request, or constructors, spec parsing and warm-up"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15,
		Help: "operations per host second, median window or pass"},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.16,
		Help: "median time of one operation"},
	{Name: "latency_tail_us", Unit: "us", Better: "lower", Bound: 0.25,
		Help: "highest percentile of the operation time with at least ten samples beyond it, else the slowest"},
}

var allWorkloads = []string{"serve_closed", "serve_probe", "dispatch_direct", "sim_paper", "sim_pluggable", "solve_grid", "solve_big"}

func traceOverheadDefs() []metricDef {
	var ds []metricDef
	for _, w := range allWorkloads {
		ds = append(ds, metricDef{Name: "harness.trace_overhead_pct." + w, Unit: "%", Better: "lower", On: []string{w},
			Help: "slow-down of the workload's headline with span recording on, measured inside the traced run"})
	}
	return ds
}

func simCellDefs() []metricDef {
	var ds []metricDef
	for _, c := range paperCells {
		ds = append(ds, metricDef{Name: "sim.ns_per_job." + c.Name, Unit: "ns", Better: "lower", On: []string{"sim_paper"}})
	}
	for _, c := range pluggableCells {
		ds = append(ds, metricDef{Name: "sim.ns_per_job." + c.Name, Unit: "ns", Better: "lower", On: []string{"sim_pluggable"}})
	}
	return ds
}

var (
	serveBoth  = []string{"serve_closed", "serve_probe"}
	simBoth    = []string{"sim_paper", "sim_pluggable"}
	solveBoth  = []string{"solve_grid", "solve_big"}
	inProcess  = []string{"dispatch_direct", "sim_paper", "sim_pluggable", "solve_grid", "solve_big"}
	onClosed   = []string{"serve_closed"}
	onProbe    = []string{"serve_probe"}
	onDispatch = []string{"dispatch_direct"}
	onPaper    = []string{"sim_paper"}
	onPlug     = []string{"sim_pluggable"}
	onGrid     = []string{"solve_grid"}
	onBig      = []string{"solve_big"}
)

// perLayer lists the per-layer metrics, named <module>.<name>.
var perLayer = concat(
	[]metricDef{
		// cmd/lbd, measured from outside the child process.
		{Name: "lbd.drawn_jobs_per_s", Unit: "1/s", Better: "higher", On: onClosed, Help: "POST /work, requirement drawn server-side (drawMu path)"},
		{Name: "lbd.explicit_jobs_per_s", Unit: "1/s", Better: "higher", On: onClosed, Help: "POST /work?work=1 (Sscanf path)"},
		{Name: "lbd.healthz_rtt_p50_us", Unit: "us", Better: "lower", On: onClosed, Help: "GET /healthz round trip: the socket, net/http and client floor"},
		{Name: "lbd.work_minus_healthz_p50_us.drawn", Unit: "us", Better: "lower", On: onClosed, Help: "handler self time, drawn form"},
		{Name: "lbd.work_minus_healthz_p50_us.explicit", Unit: "us", Better: "lower", On: onClosed, Help: "handler self time, explicit form"},
		{Name: "lbd.req_write_p50_us", Unit: "us", Better: "lower", On: serveBoth, Help: "client span: request write"},
		{Name: "lbd.req_wait_p50_us", Unit: "us", Better: "lower", On: serveBoth, Help: "client span: write done to first response byte"},
		{Name: "lbd.req_read_p50_us", Unit: "us", Better: "lower", On: serveBoth, Help: "client span: first byte to body read and parsed"},
		{Name: "lbd.cpu_us_per_job", Unit: "us", Better: "lower", On: serveBoth, Help: "child user+sys CPU over the measured phase per completed job"},
		{Name: "lbd.gc_cycles", Unit: "count", Better: "lower", On: serveBoth, Help: "lbd_go_gc_cycles_total at the end of the measured phase"},
		{Name: "lbd.heap_objects_mb", Unit: "MB", Better: "lower", On: serveBoth},
		{Name: "lbd.sched_latency_p99_us", Unit: "us", Better: "lower", On: serveBoth},
		{Name: "lbd.metrics_scrape_p50_ms", Unit: "ms", Better: "lower", On: onProbe, Help: "GET /metrics under load"},
		{Name: "lbd.probe_overhead_p50_us", Unit: "us", Better: "lower", On: onProbe, Help: "(send to response) minus the sojourn_ms the response reports"},
		{Name: "lbd.start_to_listen_ms", Unit: "ms", Better: "lower", On: serveBoth, Help: "spawn to first /healthz answer"},
		{Name: "lbd.predicted_ready_s", Unit: "s", Better: "lower", On: serveBoth, Help: "spawn to lbd_delay_predicted_ready 1"},
		{Name: "lbd.drain_ms", Unit: "ms", Better: "lower", On: serveBoth, Help: "SIGTERM to exit"},
		{Name: "lbd.peak_rss_mb", Unit: "MB", Better: "lower", On: serveBoth, Help: "the child's max RSS; GC timing moves it by 10% between identical runs, so it is reported, not gated"},

		// The harness itself.
		{Name: "harness.client_cpu_share", Unit: "ratio", Better: "lower", On: serveBoth, Help: "harness CPU over harness+child CPU in the measured phase"},
		{Name: "harness.late_p50_us", Unit: "us", Better: "lower", On: onProbe, Help: "open-loop generator: actual send minus due instant"},
		{Name: "harness.late_p99_us", Unit: "us", Better: "lower", On: onProbe},
		{Name: "harness.build_s", Unit: "s", Better: "lower", On: serveBoth, Help: "go build of cmd/lbd, excluded from setup_s"},
		{Name: "harness.peak_rss_mb", Unit: "MB", Better: "lower", On: inProcess, Help: "the workload process's max RSS (the program's code runs in it); reported, not gated, as lbd.peak_rss_mb"},
		{Name: "harness.span_sum_err_pct", Unit: "%", Better: "lower", On: allWorkloads, Help: "worst parent span whose self time plus children misses its duration"},

		// internal/lb.
		{Name: "lb.dispatch_ns.sqd2_n100", Unit: "ns", Better: "lower", On: onDispatch},
		{Name: "lb.dispatch_ns.sqd2_n100_allcores", Unit: "ns", Better: "lower", On: onDispatch, Help: "the same farm at the host's GOMAXPROCS: faster, and 40% apart between identical farms"},
		{Name: "lb.dispatch_ns.jsq_n1000", Unit: "ns", Better: "lower", On: onDispatch},
		{Name: "lb.dispatch_ns.jiq_n100", Unit: "ns", Better: "lower", On: onDispatch},
		{Name: "lb.dispatch_ns.lwl_n1000", Unit: "ns", Better: "lower", On: onDispatch},
		{Name: "lb.dispatch_ns.random_n100", Unit: "ns", Better: "lower", On: onDispatch, Help: "the pick-free floor: admit, handoff and record"},
		{Name: "lb.do_rtt_p50_ns", Unit: "ns", Better: "lower", On: onDispatch},
		{Name: "lb.do_rtt_p99_ns", Unit: "ns", Better: "lower", On: onDispatch},
		{Name: "lb.queue_full_per_kjob", Unit: "count", Better: "lower", On: onDispatch, Help: "ErrQueueFull retries per thousand dispatched jobs: wasted attempts"},
		{Name: "lb.recorder_snapshot_us", Unit: "us", Better: "lower", On: onDispatch},
		{Name: "lb.recorder_state_bytes", Unit: "B", Better: "lower", On: onDispatch},
		{Name: "lb.shutdown_ms", Unit: "ms", Better: "lower", On: onDispatch},
		{Name: "lb.farm_sojourn_p50_us", Unit: "us", Better: "lower", On: serveBoth, Help: "sojourn_ms from response bodies"},
		{Name: "lb.wait_p50_ms", Unit: "ms", Better: "lower", On: onProbe, Help: "sojourn_ms minus service_ms from response bodies"},
		{Name: "lb.service_p50_ms", Unit: "ms", Better: "lower", On: onProbe},
		{Name: "lb.service_realized_ratio", Unit: "ratio", Better: "lower", On: onProbe, Help: "lbd_service_realized_ratio: sleeper inflation"},
		{Name: "lb.mean_delay_svc", Unit: "svc", Better: "lower", On: onProbe, Help: "lbd_delay_mean_service_times"},
		{Name: "lb.delay_minus_upper_svc", Unit: "svc", Better: "lower", On: onProbe, Help: "measured mean minus predicted upper bracket; fidelity, not gated"},

		// internal/minindex at n=1000.
		{Name: "minindex.conc_update_ns", Unit: "ns", Better: "lower", On: onDispatch},
		{Name: "minindex.conc_argmin_ns", Unit: "ns", Better: "lower", On: onDispatch},
		{Name: "minindex.seq_update_ns", Unit: "ns", Better: "lower", On: onPlug},
		{Name: "minindex.seq_argmin_ns", Unit: "ns", Better: "lower", On: onPlug},

		// internal/sim.
		{Name: "sim.alloc_bytes_per_run", Unit: "B", Better: "lower", On: simBoth, Help: "heap bytes allocated per sim.Run, median over cells"},
		{Name: "sim.replications_speedup_r2", Unit: "ratio", Better: "higher", On: onPaper, Help: "R=1 wall over R=2 wall on the N=1000 cell"},
		{Name: "sim.golden_mismatch_cells", Unit: "count", Better: "lower", On: simBoth, Help: "cells whose row differs from goldens/sim_seed1.json; counted at seed 1 only"},

		// internal/stats, frand, workload.
		{Name: "stats.addbatch_ns_per_obs", Unit: "ns", Better: "lower", On: simBoth},
		{Name: "stats.sketch_add_ns", Unit: "ns", Better: "lower", On: simBoth},
		{Name: "stats.sketch_merge_us", Unit: "us", Better: "lower", On: onDispatch},
		{Name: "stats.sketch_quantile_us", Unit: "us", Better: "lower", On: onDispatch},
		{Name: "frand.exp_ns", Unit: "ns", Better: "lower", On: onPaper},
		{Name: "frand.intn_ns", Unit: "ns", Better: "lower", On: onPaper},
		{Name: "workload.sample_ns.exponential", Unit: "ns", Better: "lower", On: onPlug},
		{Name: "workload.sample_ns.pareto", Unit: "ns", Better: "lower", On: onPlug},
		{Name: "workload.parse_us", Unit: "us", Better: "lower", On: simBoth, Help: "Parse{Arrival,Service,Policy,Speeds} of one cell's specs"},

		// internal/qbd, mat, markov on the workloads' own models.
		{Name: "qbd.newblocks_ms.b56", Unit: "ms", Better: "lower", On: onGrid},
		{Name: "qbd.newblocks_ms.b330", Unit: "ms", Better: "lower", On: onBig},
		{Name: "qbd.logreduction_ms.b56", Unit: "ms", Better: "lower", On: onGrid},
		{Name: "qbd.logreduction_ms.b330", Unit: "ms", Better: "lower", On: onBig},
		{Name: "qbd.logreduction_iters.b56", Unit: "count", Better: "lower", On: onGrid},
		{Name: "qbd.logreduction_iters.b330", Unit: "count", Better: "lower", On: onBig},
		{Name: "qbd.ratematrix_ms.b56", Unit: "ms", Better: "lower", On: onGrid},
		{Name: "qbd.ratematrix_ms.b330", Unit: "ms", Better: "lower", On: onBig},
		{Name: "qbd.solve_ms.lower_improved.b330", Unit: "ms", Better: "lower", On: onBig},
		{Name: "qbd.solve_ms.lower_mg.b330", Unit: "ms", Better: "lower", On: onBig},
		{Name: "qbd.solve_ms.upper.b330", Unit: "ms", Better: "lower", On: onBig},
		{Name: "qbd.joindist_ms.b330", Unit: "ms", Better: "lower", On: onBig},
		{Name: "mat.multo_ms.b330", Unit: "ms", Better: "lower", On: onBig},
		{Name: "mat.multo_gflops.b330", Unit: "GFLOP/s", Better: "higher", On: onBig},
		{Name: "mat.inverse_ms.b330", Unit: "ms", Better: "lower", On: onBig},
		{Name: "markov.solve_exact_ms", Unit: "ms", Better: "lower", On: onGrid, Help: "SolveExact at N=3, d=2, rho=0.8, queue cap 25"},
		{Name: "solve.unstable_cells", Unit: "count", Better: "lower", On: solveBoth, Help: "ErrUnstable results per pass or walk; expected, must repeat exactly"},
		{Name: "engine.collect_speedup_w2", Unit: "ratio", Better: "higher", On: onGrid, Help: "one worker's wall over two workers' on the grid cells; reported, not gated"},
	},
	simCellDefs(),
	traceOverheadDefs(),
)

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}
