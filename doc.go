// Package finitelb computes finite-regime delay bounds for randomized load
// balancing, reproducing Godtschalk & Ciucu, "Randomized Load Balancing in
// Finite Regimes" (ICDCS 2016).
//
// The SQ(d) ("power-of-d") policy dispatches each arriving job to the
// least-loaded of d uniformly sampled servers out of N. Its delay is known
// exactly only asymptotically (N → ∞, Mitzenmacher's fixed point); this
// package computes *non-asymptotic* stochastic lower and upper bounds on
// the mean delay for any concrete N, by solving two modified Markov models
// with matrix-geometric (quasi-birth-death) techniques:
//
//   - the lower-bound model generalizes threshold jockeying: whenever the
//     longest/shortest queue spread would exceed a threshold T, a job jumps
//     toward the shortest queue, making the system slightly better;
//   - the upper-bound model wastes the offending service completions and
//     pads arrivals with phantom work, making the system slightly worse.
//
// Both live on a truncated state space whose blocks repeat, so stationary
// distributions follow Neuts' matrix-geometric form π_{q+1} = π_q·R; for
// the lower bound R can be taken as ρᴺ·I (the paper's Theorem 3). That
// diagonal R skips the logarithmic reduction, so the lower bound costs one
// boundary solve. Its mean delay agrees with the solved R's to 1e-8 at
// T ≤ 3 (less closely at high ρ and larger T), its delay quantiles to about
// 1e-6 (see DelayDistributionBracket).
//
// # Quick start
//
//	sys, err := finitelb.NewSystem(6, 2, 0.9) // N=6 servers, d=2 choices, ρ=0.9
//	if err != nil { ... }
//	b, err := sys.DelayBounds(3) // threshold T=3
//	if err != nil { ... }
//	fmt.Printf("delay ∈ [%.3f, %.3f], asymptotic %.3f\n",
//	    b.Lower.MeanDelay, b.Upper.MeanDelay, sys.AsymptoticDelay())
//
// The package also ships the exact-model numerical solver (small N), a
// discrete-event simulator, and Mitzenmacher's asymptotic formula, so the
// full evaluation of the paper (Figures 9 and 10) regenerates from this
// API alone; see cmd/figures.
//
// # Parallel evaluation engine
//
// The evaluation pipeline is embarrassingly parallel: every (N, d, ρ, T)
// grid cell of a figure panel or sweep is independent. internal/engine
// provides the bounded worker pool (GOMAXPROCS-sized by default,
// configurable) that fans cells out and merges results deterministically
// in submission order, so output is bit-identical for any worker count;
// internal/figures, cmd/figures (-workers), and cmd/sweep (-workers) all
// submit their grids through it.
//
// The simulator parallelizes one level deeper: sim.Options.Replications
// splits a measured-job budget across R independently seeded replications
// (seeds derived from the master seed via a PCG stream) run concurrently
// and merged into a single Result with pooled mean, variance, confidence
// interval, and quantile sketch. R=1 — the default — is bit-identical
// to the legacy serial stream; larger R is statistically equivalent.
// Underneath, the QBD logarithmic reduction carries only the columns of
// its iterates that can be nonzero (those of A0 and A2, 57 and 43 of 330
// at block 330) through the cache-blocked mat.Dense.MulTo, and the LU
// solves substitute whole rows; both keep each element's operations and
// their order, so every result is bit-identical to the dense iteration.
//
// # Pluggable workloads and policies
//
// The analytic machinery covers exactly one scenario — Poisson arrivals,
// exponential unit-rate homogeneous servers, SQ(d) dispatch. The
// simulator goes beyond it: internal/workload plugs arrival processes,
// unit-mean service-time laws, per-server speed factors, and dispatch
// policies into the event loop, selected through spec strings on
// SimOptions (Arrival, Service, Policy, Speeds) and the matching
// cmd/sweep flags (-mode sim -arrival -service -policies -speeds).
//
// # Workload spec grammar
//
// Every workload piece parses from a compact spec string of the shape
// NAME[:ARGS], where ARGS is a comma list of KEY=VALUE pairs and the
// first token may be the bare value of the spec's primary key
// ("erlang:4" ≡ "erlang:k=4"). Unknown, duplicate, or malformed keys are
// rejected with the accepted grammar restated in the error. The full
// vocabulary:
//
//	arrivals  "poisson" (default) | "deterministic" | "erlang:K"
//	          (smoother, SCV 1/K) | "hyperexp:CV2" (bursty, SCV ≥ 1)
//	services  "exponential" (default) | "deterministic" | "erlang:K" |
//	          "pareto:ALPHA[,h=H]" (heavy-tailed bounded Pareto,
//	          default cap h=1000 mean service times)
//	policies  "sqd" (default, the paper's SQ(d); "sqd:D" overrides d) |
//	          "jsq" | "jiq" | "lwl" (least-work-left, dispatching on
//	          actual outstanding work) | "round-robin" | "random"
//	speeds    comma list ("1,1,2.5") or SPEEDxCOUNT groups ("1x8,4x2")
//
// Every combination with a classical closed form is pinned to it as a
// correctness oracle (internal/sim tests):
//
//   - default Poisson/exponential/SQ(d): pinned bit for bit (three
//     spellings of the default wiring give one stream) AND inside the
//     paper's QBD lower/upper delay bounds on an (N, d, ρ, T) grid;
//   - M/G/1 (N=1, d=1, any service law): Pollaczek–Khinchine via the
//     law's E[S²];
//   - GI/M/1 (N=1, d=1, any arrival process): 1/(1−σ) with σ from
//     Theorem 2's embedded σ-equation (System.Sigma, for the same
//     arrival spec);
//   - round-robin + deterministic arrivals: per-server D/M/1, same σ
//     machinery;
//   - random at any N: independent M/M/1 queues;
//   - single-server speed s: M/M/1 with both rates scaled by s;
//   - LWL at N=1 (any service law): the same M/G/1; and at N=1 SQ(1),
//     JSQ, LWL, JIQ and random are one run bit for bit, since each takes
//     one IntN(1) per arrival and every job's requirement is drawn at
//     its arrival;
//   - SQ(d) under erlang:K or hyperexp arrivals: System.LowerBoundGI for
//     the same spec lies below the simulated delay (root package tests).
//
// The remaining combinations — JIQ, SQ(d) under deterministic arrivals
// or heavy-tailed service, heterogeneous fleets under any load-aware
// policy — are simulation-only and validated by ordering properties
// (JSQ ≤ SQ(2) ≤ random at equal load; LWL ≤ JSQ under heavy-tailed
// service, where queue length is a poor proxy for work) and
// seed-determinism tests. The default configuration pays little for the
// pluggability: every built-in law and policy resolves to a concrete
// sampler or picker that draws from frand and reads the loop's queue
// mirrors directly, inside the one event loop (see "Simulator
// performance"), which the default-wiring goldens pin bit for bit.
//
// # From model to machine
//
// Everything above evaluates the paper in model space — closed forms,
// matrix-geometric solves, virtual-time simulation. internal/lb closes
// the remaining gap: a live dispatcher runtime serving real concurrent
// traffic on N goroutine servers with bounded FIFO queues, routing
// through the *same* workload.Policy implementations, measuring through
// the *same* internal/stats accumulators, and reporting in the *same*
// unit (multiples of the mean service time). A job's requirement is
// rendered as wall-clock time by a self-calibrating sleeper; dispatch
// samples a sharded atomic queue-length table (O(d) per SQ(d) decision,
// no global lock) and a lock-free idle stack serves JIQ; cmd/lbd exposes
// the farm over HTTP (POST /work, /metrics, /healthz) with a built-in
// open-loop load generator mode.
//
// The calibration methodology — and the repository's headline
// end-to-end test (internal/lb/calibrate_test.go, skipped under -short)
// — is: drive the live farm with Poisson arrivals and exponential
// service under SQ(2) at (N, ρ) ∈ {2, 10} × {0.7, 0.9}, and assert the
// *measured* mean sojourn falls inside the paper's QBD lower/upper
// bracket, with slack for the batch-means confidence interval and for
// host timer jitter (which the Summary's realized-service gauge makes
// visible). The same harness checks the policy ordering holds live.
// Two reproduction paths:
//
//	go test -run TestLiveDelayWithinQBDBounds -v ./internal/lb
//	go run ./examples/livelb
//
// Live timing fidelity is the interesting engineering problem: hosts
// overshoot time.Sleep by anywhere from ~50µs to over a millisecond, and
// naive per-job sleeping compounds that error through every queue into
// an effective utilization far above the nominal ρ. The runtime defeats
// this twice over: the sleeper learns the host's overshoot online and
// yield-spins only across the learned uncertainty margin, and each
// server schedules completions on its own work clock (deadlines chain
// from max(arrival, previous deadline), the ideal FIFO schedule), so
// scheduling noise delays only the observation of each completion and
// never inflates the queueing dynamics themselves. Micro-benchmarks for
// the hot path live in internal/lb/bench_test.go; the repository's
// benchmark (bash bench/run.sh, workload dispatch_direct) reports the
// dispatch cost per policy as lb.dispatch_ns.*.
//
// # Dispatch at scale
//
// SQ(d) samples d queues per job, but the global-information policies —
// JSQ over queue lengths, LWL over outstanding work — need an argmin over
// all N, and the reference O(N) scan prices that at ~9–12µs per pick at
// N=1000, capping a live farm near 80k dispatches/sec exactly where
// large-N experiments get interesting. internal/minindex removes the
// asymptote: a tournament min-tree over the per-server keys maintains
// (min, tie count) at every node, giving O(log N) repair per state change
// and O(log N) argmin per pick, with ties broken *exactly* uniformly by
// descending on tie counts — the same unbiasedness contract the scan
// pickers satisfy (reservoir tie-breaking plus a rotated scan origin, so
// a directional pass over live queues cannot favour low-numbered
// servers).
//
// The index activates by size: at N ≥ minindex.Threshold (64) the
// simulator's farm view mounts a sequential tree and the live runtime
// mounts a lock-free one over its padded atomic slot table; below it both
// keep the scan, which beats tree walks on a few cache lines. The
// selection is invisible through the workload.Picker interface — JSQ and
// LWL ask their Queues view for workload.ArgminQueues/ArgminWorkQueues
// and fall back to scanning when the host offers no index — and changes
// only rng consumption, never the policy's law (pinned by agreement and
// seed-determinism tests in internal/sim). The live tree is repaired by
// compare-and-swap with per-node version tags; a randomized property test
// drives concurrent enqueue/complete churn under -race and asserts the
// tree's argmin matches a naive scan of the atomic table at every
// quiescent point. The live LWL index keys on outstanding nominal work
// (dispatch → completion, µs-quantized, speed-scaled) rather than the
// scan view's decaying in-service remainder; the two orderings agree
// whenever backlogs differ by at least one job. Both hosts' trees stay
// keyed by server id over the whole farm with a down server at the
// ceiling, so on a degraded farm the argmin is a live server and the
// view reports its rank among the alive servers — the policy sees the
// smaller farm, indexed or not (see "The failure domain").
//
// The dispatch path is also multi-producer: lb.GenConfig.Dispatchers fans
// the open-loop generator across D goroutines sharing one farm (table,
// index, idle stack) — the multi-front-end model, cmd/lbd -dispatchers.
// Each dispatcher paces on an absolute timeline, and a sleeper wake-up
// submits every overdue arrival under one clock read, so a generator
// that has fallen behind catches up without paying the pacing cost per
// job. BenchmarkDispatchContended/D={1,2,4,8} tracks the shared-state
// cost of fan-in (on a single-core host ns/op holding flat as D grows is
// the no-collapse ceiling; scaling with D needs cores), and
// BenchmarkPick's N=10000 rows show sub-µs indexed picks two decades past
// where the scan gave out.
//
// # Simulator performance
//
// The discrete-event simulator is the cost floor under every sweep the
// analytic side cannot reach, so its event core is engineered and
// benchmarked like the live dispatch path. There is one event loop
// (internal/sim/loop.go, runTyped), generic over the (arrival law,
// service law) sampler pair, with the policy's picker held as an
// interface — one indirect call per arrival. The draws are indirect calls
// too: Go stencils generics per GC shape, not per type, and objdump of
// the go1.24.0 build shows arr.next and svc.sample called through the
// shape's dictionary even in the Poisson × exponential instantiation.
// Three event sources race on model time: the churn schedule (a +Inf
// sentinel when there is none, so churn-free runs pay one predictable
// compare per event), the next arrival, and the earliest completion. A
// user-supplied implementation of a workload interface is one more
// instantiation of the same loop body behind a small adapter, not a
// second loop; TestTypedLoopMatchesInterfaceLoop pins the concrete
// samplers and pickers to the adapter instantiation draw for draw, and
// the default-wiring and churn goldens pin the loop itself. The loop has
// one arrival path and one departure path for every policy: an arrival
// draws the next interarrival, then the job's requirement, then the
// pick, and the requirement rides in the server's ring with the arrival
// stamp, through a crash's redistribution too. Draws come from
// internal/frand, a concrete PCG re-derivation of math/rand/v2's exact
// streams (bit-identity pinned in that package), so the loop pays no
// rand.Source dispatch.
//
// The concrete samplers and pickers earn their keep by what sits behind
// the call — a sampler calls frand directly, and a picker reads the
// loop's queue mirrors directly — not by devirtualizing it. A trial that
// deleted them, measured on bench/run.sh with parent and change
// alternating, lost both ways. Picking through the workload pickers (the
// interface queue view) took sim_pluggable's ops_per_s from 1.35 M to
// 0.58 M and its latency_tail_us from 2.66 M to 10.1 M, driven by
// n1000_jiq's scan through the view, and sim_paper's ops_per_s down
// 13 %. Drawing through the workload laws left sim_paper flat and cost
// sim_pluggable 3.9 % ops_per_s and 10 % latency_p50_us, the parent ahead
// in 6 to 8 of 10 pairs per metric.
//
// Until PR 13 the paper's own wiring (Poisson × exponential × SQ(d)) was
// peeled onto a second, hand-written copy of the loop with the three
// draws and an unrolled d = 2 pick inlined, and churn and user-supplied
// wirings ran a third, interface-dispatched copy; lockstep tests held the
// three together. Measured on bench/run.sh's sim_paper cells (six
// alternating runs a side, seed 1) the peel bought 6.5–9 % ns/job where
// d = 2 (N = 10 … 10⁴) and lost 4–8 % where d = 10 and d = 50: 2.4 % of
// the workload's jobs per second, against a median cell 3.7 % and a
// slowest cell 8 % faster without it — which did not pay for a duplicate
// of the loop body that every change had to be made in twice. Churn runs,
// moved off the interface copy, got faster (sim.ns_per_job.n10_churn
// 138 → 116); the other sim_pluggable cells did not move.
//
// The completion tracker — "which server finishes next" — is one
// concrete structure at every farm size (internal/sim/tracker.go): a
// 4-ary (key, id) tournament tree over fixed leaves, branch-free over the
// integer bit patterns of the completion times, min and argmin one root
// read. An update costs the same however far ahead the key lies and
// whichever server is re-keyed, so heavy-tailed service laws and churn's
// re-key of a non-minimum server are ordinary updates, and among equal
// keys the lowest server id wins at every N. The retired container/heap
// binary heap (three interface calls per sift level, ~half of all event
// time at N ≥ 250) and the linear scan stay in tracker_test.go as the
// reference oracles.
//
// Until PR 16 the tree was the middle one of three modes behind a
// size-selected wrapper: a flat scan ran at N ≤ 8, and at N ≥ 512 under
// light-tailed service a calendar queue exploited the loop's monotone
// re-key pattern for amortized O(1) updates (heavy-tailed laws, whose
// deep keys defeated its window sweep, stayed on the tree). The cutoffs
// came from a tracker micro-benchmark that predated the one event loop.
// Measured on bench/run.sh at seed 1, parent and change alternating — ten
// untraced runs a side for the workload rows, three traced for the cells
// (medians) — the modes no longer paid for their 280 lines and the
// wrapper's branch on every min and update:
//
//	sim_paper      ops_per_s        5.671 M → 5.706 M   (+0.6 %)
//	               latency_p50_us   363.2 k → 358.4 k   (−1.3 %)
//	               latency_tail_us  1009.7 k → 998.0 k  (−1.2 %)
//	sim_pluggable  ops_per_s        2.534 M → 2.773 M   (+9.5 %)
//	               latency_tail_us  1478.9 k → 1249.8 k (−15.5 %)
//	ns/job  n10_d2_rho75    111.3 → 107.0    n250_d2_rho75    121.9 → 117.1
//	        n10_d2_rho95     98.1 →  95.5    n250_d50_rho95   611.1 → 603.9
//	        n50_d10_rho95   220.0 → 216.6    n1000_d2_rho90   124.0 → 117.0
//	        n10000_d2_rho90 143.3 → 151.4    n1000_jiq       1343.3 → 1136.1
//
// The calendar queue was worth 5.6 % ns/job on the one cell far past
// cache, N = 10⁴, and that is given up knowingly: it does not reach the
// workload's slowest-cell time (latency_tail_us, better), and every other
// cell is 1–6 % faster without the wrapper. The flat scan was slower than
// the tree where it was selected (cmd/sweep -mode sim over its five
// default policies, 5.5 M jobs a run, process wall time, three
// alternating runs, medians: N = 8, ρ = .75: 723 → 605 ms; N = 8,
// ρ = .95: 619 → 545 ms; N = 4: 557 → 510 ms; N = 2: 454 → 456 ms). No
// gain is claimed: most of sim_pluggable's movement is the n1000_jiq
// cell, a 1000-entry queue scan the tracker is no part of, so more likely
// code and cache layout than the algorithm. The calendar queue also
// ordered simultaneous completions its own way; 1738 of 1740 sim.Run
// results compared across the change were bit-identical, and the two that
// were not — deterministic arrivals with deterministic service under
// SQ(2) at N = 600 and 2000, the wiring whose completions tie exactly —
// moved in the last digits of the mean or of its confidence half-width
// (same sojourns, summed in another order).
//
// bash bench/run.sh is the measurement: workload sim_paper runs the
// paper's wiring from spec strings through sim.Run on the Fig. 9 grid up
// to N = 10⁴, sim_pluggable the JSQ/LWL/JIQ, heavy-tailed, round-robin
// and churn cells, each reporting jobs per second end to end,
// sim.ns_per_job.<cell> per cell, and sim.golden_mismatch_cells — the
// bit-identity check against bench/goldens. BenchmarkSimJobs ({fast,
// jsq-indexed, lwl-work-aware} × N ∈ {10, 250, 1000, 10000} at ρ = 0.9)
// is the micro-benchmark for working on the loop. The steady-state event
// path is allocation-free, churn-armed runs included (guarded by
// TestAllocFreeEventPath in CI); the loop is bound by the irreducible
// parts — the bit-pinned rng draws, the statistics accumulators, and one
// genuinely unpredictable arrival-vs-departure branch per event — with
// the tracker down to ~15% of event time.
//
// # Streaming observability
//
// Every delay number the repository reports — simulator quantiles, live
// Summary percentiles, Prometheus histograms — flows through one
// accumulator, internal/stats.Stream, whose tail estimator is a
// mergeable DDSketch-style quantile sketch (internal/stats/sketch.go).
// The
// sketch holds log-spaced buckets at relative accuracy α = 1%
// (γ = (1+α)/(1−α); bucket i covers (γ^(i−1), γ^i]), so any quantile of
// any positive-valued stream — p50 through p999, at any N and any run
// length — comes back within α of the exact order statistic, in ~9 KB
// of state, with no range to configure and no silent clipping. A bounded bucket budget (1024
// log-spaced buckets ≈ 8 decades of dynamic range) caps worst-case
// state by collapsing the lowest buckets toward a canonical cutoff;
// collapsed-region quantiles degrade to upper bounds (Clamped() reports
// it) while the upper tail keeps the α guarantee.
//
// Mergeability is the load-bearing property: the collapse rule is
// canonical (final state is a pure function of the observation
// multiset), so merging per-replication or per-server shard sketches in
// any order is bit-identical to sketching the whole stream — pinned by
// white-box state-equality tests under forced collapse, and by an
// accuracy oracle comparing sketch quantiles against exact sorted-sample
// quantiles on exponential, Erlang, and bounded-Pareto streams. That is
// what lets sim.Replications pool tails exactly, lets lb.Recorder keep a
// sketch per server (recShards = 1024) with cheap exact Snapshot merges,
// and is the unit-compatible substrate a sharded multi-dispatcher
// cluster or an SLO controller needs for honest tail reporting (ROADMAP
// items 2 and 4; this section delivers item 5). cmd/lbd exports the
// merged sketch natively: p50/p95/p99/p999 quantile gauges plus a
// cumulative lbd_delay_service_times Prometheus histogram with
// log-spaced le buckets.
//
// The sketch rides the same zero-allocation contract as the event loop:
// Sketch.Add/Merge and the batched Stream.AddBatch are
// //finitelb:hotpath-annotated, finitelint-clean, and covered by
// TestAllocFreeEventPath.
//
// # Tracing the job lifecycle
//
// Aggregates answer "how is the system doing"; the flight recorder
// answers "what happened to that job". internal/trace records a span per
// sampled job — arrival, pick, enqueue, service start, completion, plus
// the chosen server, the queue length the picker saw, and how many
// servers tied for the minimum — through five ordered stage calls
// (Start/Picked/Enqueued/Started/Done, Abort for rejected jobs). Spans
// live in a fixed-capacity lock-free ring (default 4096) that overwrites
// oldest-first, so memory is bounded no matter how long the process
// runs; sampling is deterministic (every k-th arrival in sequence order,
// not coin flips), so two runs at the same seed trace the same jobs and
// a sim trace is reproducible evidence, not an anecdote.
//
// The simulator's event loop and the live dispatch path carry the hooks.
// The contract is the same on both sides: trace off means bit-identical
// draws and 0 allocs/event (the sim goldens and
// TestAllocFreeEventPathTraced pin it; the recorder itself is
// hotpath-annotated with 0 allocs/span, guarded by
// TestAllocFreeRecording), so tracing can ship enabled-by-flag without a
// standing tax. cmd/lbd surfaces the recording three ways: GET
// /debug/jobs returns the most recent spans as JSON (or
// ?format=csv for spreadsheet triage) with per-stage timestamps and
// derived wait/service/sojourn durations; /metrics exports per-stage
// latency histograms (lbd_trace_stage_service_times{stage=pick|wait|
// service}, in service-time units via the recorder's Scale) plus
// seen/sampled/published/dropped/aborted counters; and lbd_go_* gauges
// read the Go runtime's own telemetry (runtime/metrics: GC cycles and
// pauses, heap bytes, goroutines, scheduler latency quantiles) so host
// noise is visible next to the queueing signal it pollutes.
//
// The same scrape closes the predicted-vs-measured loop (ROADMAP item
// 4): when the serve-mode configuration is inside the analytic model's
// reach (SQ(d), exponential service, homogeneous speeds, N ≤ 16), lbd
// solves the QBD bracket for its own (N, d, ρ) at startup —
// System.StableBounds walks the threshold T up to the first stable upper
// bound while the block size stays affordable, the one T-walk lbd's two
// modes and the examples share — and exports
// lbd_delay_predicted_{mean,p99}_{lower,upper} gauges beside the
// measured lbd_delay_* series, with lbd_delay_predicted_ready flagging
// solver completion. The p99 bracket comes from
// finitelb.DelayDistributionBracket: the arrival-join-level distribution
// extracted from each bound chain's stationary vector (PASTA over the
// tie-group arrival rates, internal/qbd.JoinDistribution) feeds an
// Erlang mixture for the sojourn law. A System keeps each chain it has
// solved, so the bracket reuses the upper chain the walk already solved
// and adds only the matrix-geometric lower chain: at (8, 2, .85), where
// T=4 gives block 330, the whole startup solve takes about 0.5 s on a
// 2-core Xeon (bench/ workload solve_big). The mean bracket inherits the
// paper's Theorem 1 ordering; the quantile bracket is an empirical
// transfer of it — see the DelayBracket doc comment for the honest
// caveat. One Grafana panel showing measured p99 (α = 1% sketch error)
// tracking between two model-derived lines is the repository's thesis
// as a dashboard.
//
// # The failure domain
//
// A model of N servers is only production-shaped if N can change out
// from under it. The failure domain spans both execution engines and
// the daemon with one semantics: servers join, leave gracefully
// (finish the in-service job, requeue the rest), or crash (lose
// in-service progress, orphan the queue for redelivery), and because
// the offered load is open-loop, crashing k of N pushes every
// survivor's utilization from ρ to ρ·N/(N−k) — which the analytics
// already price. The headline oracle
// (internal/lb/chaos_calibrate_test.go) drives the live farm through
// healthy → crashed → restored and asserts the measured windowed delay
// leaves the (N, ρ) QBD bracket and lands in the (N−k, ρ·N/(N−k)) one,
// then comes back; examples/churn replays the same three-act script
// with the model bracket, the simulator twin, and the live farm
// printed side by side.
//
// The pieces, layer by layer:
//
//   - One rule (internal/workload): a degraded farm is a smaller farm.
//     workload.Live is an immutable membership snapshot — the live ids
//     in ascending order and the inverse rank map — and both engines
//     show their pickers the farm of the alive servers addressed by
//     rank, then map the picked rank back to a server id. Every policy,
//     healthy or degraded, simulated or live, is therefore its ordinary
//     picker on alive servers (SQ(d) clamps d to alive); no view reports
//     a sentinel length for a down server and no host repairs a pick
//     that landed on one. The per-stream picker is rebuilt when the
//     snapshot changes, so round-robin's cursor and SQ(d)'s sampling
//     permutation restart at a membership change. Live.Without/With are
//     also the one membership rulebook ("already down", "already up",
//     "last live server") behind chaos.Resolve, sim.Options.Churn
//     validation and lb's Leave/Crash/Join.
//   - Live churn (internal/lb): Join/Leave/Crash plus Stall, Pause/
//     Resume, and SetSlow speed faults, all safe under concurrent
//     dispatch. Membership changes publish a new snapshot through one
//     atomic pointer; a dispatcher loads it once per pick, and a pick
//     that raced a change re-picks on the freshly loaded snapshot, so
//     routing follows membership without a lock. JIQ's idle stack is
//     that policy's picker on this host (hints from down servers have
//     no rank and are discarded). Every service sleep polls its
//     server's crash flag, on any farm, so a crash interrupts the job
//     in service within 2×crashPoll plus the sleeper margin.
//   - Deterministic mirror (internal/sim): Options.Churn replays the
//     same event kinds on the simulator's virtual clock, so any churn
//     scenario is seed-reproducible and cheap to sweep; a churn run
//     picks through the same rank view for every policy. A crash-at-zero
//     schedule on (N, ρ) is pinned, for all six policies, to agree with
//     an independent direct (N−k, ρ·N/(N−k)) run and to equal the
//     same-seed direct run bit for bit; full churn runs are pinned bit
//     for bit (TestChurnGoldens), and a never-firing schedule stays
//     bit-identical to the churn-free goldens at 0 allocs/event.
//   - Fault schedules (internal/workload, internal/chaos): one compact
//     grammar — "crash@200,slow@800@s=2@f=3,restore@2000" — parses to
//     a validated, time-ordered schedule; internal/chaos resolves
//     unassigned events onto servers with a seeded PCG (never killing
//     the last live server). lbd -churn replays a schedule in either
//     mode; lbd -chaos exposes POST /debug/chaos for live injection.
//   - Timeouts, retries, hedging (internal/lb): redelivered jobs carry
//     a per-job retry budget with jittered exponential backoff
//     (RetryBudget, RetryBackoff); Deadline drops jobs whose service
//     has not started in time; Hedge duplicates a slow-to-start job to
//     a second server and cancels the loser. Every outcome lands in
//     the Recorder's conservation ledger (completed + dropped accounts
//     for every accepted job, requeues and retries itemized) and on the
//     job's trace span (Retries, Outcome), exported as
//     lbd_jobs_total{outcome} and visible per job in /debug/jobs.
//   - SLO-guarded shedding (cmd/lbd -shed): the admission guard
//     differences successive Recorder sketch snapshots
//     (stats.Sketch.DiffQuantile — exact windowed quantiles from the
//     mergeable sketch, no second accumulator) and compares the
//     windowed p99 against the model's predicted upper bracket (or
//     -shed-p99). Sustained breach trips the guard: POST /work answers
//     429 with Retry-After until a healthy window reopens admission.
//     This is the act-on-the-comparison half of ROADMAP item 4.
//
// Shutdown is part of the domain: lbd drains in dependency order —
// background generator first, HTTP listener second, farm last — so a
// SIGTERM under load cannot race fresh submissions against the drain.
// CI smokes the whole surface (scripts/smoke_chaos.sh): churn replay
// in loadgen mode, live crash/restore over /debug/chaos with the
// ledger and membership gauges scraped mid-fault, and the ordered
// drain with the generator still attached.
//
// # Machine-checked invariants
//
// The properties the headline results rest on are encoded as static
// analyzers in internal/lint and enforced by cmd/finitelint, a
// multichecker that speaks the go vet protocol:
//
//	go build -o "$(go env GOPATH)/bin/finitelint" ./cmd/finitelint
//	go vet -vettool=$(which finitelint) ./...
//	go run ./cmd/finitelint ./...        # same thing, self-driving
//	./scripts/lint.sh                    # the full CI lint gate
//
// The suite (each analyzer carries fixture-backed tests under
// internal/lint/testdata):
//
//   - detrand — deterministic packages (the analytic models, the
//     simulator and its support packages) must not call global math/rand
//     or math/rand/v2 functions; randomness flows from internal/frand or
//     an explicitly seeded source passed as a parameter. Bit-identity
//     goldens are only as reproducible as their weakest draw.
//   - walltime — the same packages must not read the wall clock
//     (time.Now, time.Since, timers); model code runs on simulated time
//     only. internal/lb and cmd/ are live and exempt.
//   - hotpath — functions annotated //finitelb:hotpath (the event
//     loop, the completion tracker, min-index pick paths, and the live
//     dispatch path) must avoid alloc-causing constructs: fmt/reflect/
//     errors calls, capturing closures, append, string concatenation,
//     and value-to-interface boxing. This is the source-level face of
//     the 0 allocs/event guarantee TestAllocFreeEventPath measures; a
//     meta-test (internal/lint/meta_test.go) pins that the annotated
//     set covers the functions the alloc test guards.
//   - atomicfield — a variable accessed through sync/atomic anywhere
//     must be accessed through sync/atomic everywhere in the package;
//     no mixed atomic/plain access to shared state.
//   - errret — cmd/ binaries must not silently discard error returns
//     from io, bufio, flag, os, or encoding/* calls.
//
// Directive grammar: //finitelb:hotpath goes in (or directly above) the
// doc comment of a function or on the line before a func literal, and
// marks it hot for the hotpath analyzer. //lint:allow <analyzer>
// <reason> on a finding's line (or the line above) suppresses that one
// finding; the reason is mandatory — an allow with an empty reason is
// itself a finding, and so is a stale allow that no longer matches
// anything.
package finitelb
