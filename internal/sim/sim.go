// Package sim provides the simulation side of the paper's evaluation: a
// discrete-event simulator of a dispatched server farm measuring per-job
// sojourn times (the baseline of Figures 9 and 10). The bound models
// themselves are solved by internal/qbd and cross-checked there against
// a truncated stationary solve (markov.SolveTruncated).
//
// The event loop is workload-agnostic: arrival processes, service-time
// laws, per-server speeds, and dispatch policies plug in through the
// interfaces of internal/workload. The default configuration — Poisson
// arrivals, exponential unit-rate homogeneous servers, SQ(d) — is the
// paper's system; every other configuration is validated against
// classical queueing oracles where one exists (see workload_test.go).
// Under every policy a job's service requirement is drawn at its arrival
// and travels with it, as in the live farm (internal/lb): requirements
// are i.i.d., so the moment of the draw does not change the law.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"finitelb/internal/engine"
	"finitelb/internal/sqd"
	"finitelb/internal/stats"
	"finitelb/internal/trace"
	"finitelb/internal/workload"
)

// Options configures a discrete-event run.
type Options struct {
	Jobs   int64  // measured jobs (default 1e6)
	Warmup int64  // discarded leading departures (default Jobs/10)
	Seed   uint64 // RNG seed (default 1)
	// BatchSize for batch-means confidence intervals; default Jobs/200.
	BatchSize int64
	// Replications splits the measured-job budget across R independently
	// seeded replications executed concurrently and merged into one Result
	// with pooled moments. Each replication pays the full Warmup, so the
	// total simulated work is Jobs + R·Warmup. The default 1 runs the
	// legacy single stream and is bit-identical to it; larger values are
	// statistically equivalent, not bit-identical.
	Replications int
	// Workers bounds the replication concurrency; default GOMAXPROCS.
	Workers int

	// Arrival is the interarrival process at aggregate rate ρ·Σspeeds
	// (ρ·N for a homogeneous fleet). Default workload.Poisson{}, the only
	// process the analytic bounds cover.
	Arrival workload.Arrival
	// Service is the unit-mean service-requirement law; the time server i
	// spends on a job is Sample/Speeds[i]. Default workload.Exponential{}.
	Service workload.Service
	// Policy routes each arrival; default workload.SQD{D: Params.D}.
	// Params.D is ignored by other policies (and by SQD specs with an
	// explicit positive D).
	Policy workload.Policy
	// Speeds are per-server speed factors for heterogeneous fleets; nil
	// means a homogeneous unit-speed fleet. Length must equal Params.N and
	// every entry must be positive. The aggregate arrival rate scales with
	// Σspeeds so ρ stays the system utilization.
	Speeds []float64

	// Trace, when non-nil, wires the flight recorder into the event
	// loop: sampled jobs get lifecycle spans (arrival/pick/enqueue/
	// start/done with server, queue length seen, and tie count) in the
	// recorder's ring plus per-stage delay sketches. Tracing never
	// consumes a draw from the simulation rng — runs are bit-identical
	// with tracing on, off, or at any sampling rate — and adds zero
	// allocations per event. With Replications > 1 all replication
	// streams share the recorder; span Seq is then the per-stream
	// arrival rank, not a global order.
	Trace *trace.Recorder

	// Churn, when non-nil, replays a membership/fault schedule on model
	// time — the simulator twin of the live farm's failure domain, so
	// every chaos scenario is seed-reproducible. Events must carry
	// explicit servers (resolve a parsed spec with internal/chaos.Resolve
	// first) and be sorted by time; stall/pause/resume are live-only
	// (wall-clock semantics) and are rejected here. Semantics per event:
	// crash loses the in-service job's progress and redistributes the
	// whole queue through the dispatch policy at the event instant
	// (arrival stamps preserved, so lost time shows up in the sojourns;
	// a re-executed job keeps its requirement, as internal/lb redelivers
	// it); leave lets the in-service job complete and redistributes only
	// the waiting jobs; slow multiplies service durations starting after
	// the event. While servers are down every policy is its ordinary
	// picker on the alive servers (workload.Live, the same rule as
	// internal/lb; round-robin's cursor and SQ(d)'s permutation restart
	// at each membership change), so a crash of k of N at fixed offered
	// load reproduces the (N−k, ρ·N/(N−k)) system. The schedule is a
	// third event source of the event loop, ahead of arrivals and
	// completions at equal instants; until its first event fires a run is
	// bit-identical to the churn-free one. Churn cannot be combined with
	// Trace.
	Churn *workload.Churn
}

// newSimStream builds the measurement stream for one replication: the
// simulator's standard sketch shape.
func newSimStream(batchSize int64) *stats.Stream {
	return stats.NewSketchStream(batchSize, stats.DefaultAlpha, stats.DefaultSketchBudget)
}

func (o *Options) setDefaults() {
	if o.Jobs <= 0 {
		o.Jobs = 1_000_000
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Jobs / 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = o.Jobs / 200
		if o.BatchSize < 1 {
			o.BatchSize = 1
		}
	}
	if o.Replications <= 0 {
		o.Replications = 1
	}
	if o.Arrival == nil {
		o.Arrival = workload.Poisson{}
	}
	if o.Service == nil {
		o.Service = workload.Exponential{}
	}
}

// wiring is the per-run workload configuration shared (read-only) by all
// replication streams.
type wiring struct {
	arrival workload.Arrival
	service workload.Service
	policy  workload.Policy
	speeds  []float64 // always length N
	rate    float64   // aggregate arrival rate ρ·Σspeeds
	// churn is the validated schedule (nil for churn-free runs).
	churn []workload.ChurnEvent
}

// resolve validates the workload options against p and freezes them into a
// wiring. It is the single place all configuration errors surface;
// runStream assumes a valid wiring.
func resolve(p sqd.Params, o Options) (wiring, error) {
	w := wiring{arrival: o.Arrival, service: o.Service, policy: o.Policy}
	if w.policy == nil {
		w.policy = workload.SQD{D: p.D}
	} else if s, ok := w.policy.(workload.SQD); ok && s.D == 0 {
		w.policy = workload.SQD{D: p.D} // parsed "sqd" with no explicit d
	}
	if err := w.service.Validate(); err != nil {
		return wiring{}, err
	}
	sum := 0.0
	switch {
	case o.Speeds == nil:
		w.speeds = make([]float64, p.N)
		for i := range w.speeds {
			w.speeds[i] = 1
		}
		sum = float64(p.N)
	case len(o.Speeds) != p.N:
		return wiring{}, fmt.Errorf("sim: %d speed factors for N = %d servers", len(o.Speeds), p.N)
	default:
		w.speeds = o.Speeds
		for i, s := range o.Speeds {
			if !(s > 0) || math.IsInf(s, 1) {
				return wiring{}, fmt.Errorf("sim: speed[%d] = %v outside (0, ∞)", i, s)
			}
			sum += s
		}
	}
	w.rate = p.Rho * sum
	if _, err := w.arrival.NewSource(w.rate); err != nil {
		return wiring{}, err
	}
	if _, err := w.policy.NewPicker(p.N); err != nil {
		return wiring{}, err
	}
	evs, err := validateChurn(o.Churn, p.N)
	if err != nil {
		return wiring{}, err
	}
	w.churn = evs
	if len(evs) > 0 && o.Trace != nil {
		return wiring{}, fmt.Errorf("sim: churn and tracing cannot be combined (queue redistribution breaks the tracer's per-server span bookkeeping)")
	}
	return w, nil
}

// Result summarizes a simulation run.
type Result struct {
	MeanDelay float64 // mean sojourn time across measured jobs
	MeanWait  float64 // mean waiting time (sojourn − 1, the unit mean service)
	HalfWidth float64 // 95% CI half-width on MeanDelay (batch means)
	Jobs      int64   // measured jobs
	MaxQueue  int     // largest queue length observed

	// Sojourn quantiles, sketch-estimated within 1% relative error.
	P50, P95, P99 float64
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("delay %.4f ± %.4f (%d jobs, max queue %d)", r.MeanDelay, r.HalfWidth, r.Jobs, r.MaxQueue)
}

// job is one queued job: its arrival stamp and its service requirement,
// drawn at arrival and carried with the job until it completes — through
// a crash's redistribution too, as in internal/lb.
type job struct{ arrival, req float64 }

// server is one FIFO queue of jobs plus the total requirement of the
// queued jobs not yet in service. The in-service job's completion time
// lives only in the tracker (tourTracker.at).
//
// The queue is a power-of-two ring buffer indexed by free-running
// head/tail counters: push and pop are a masked store/load each, with no
// append machinery and no compaction copies on the hot path (the old
// slice queue's occasional memmove plus its per-pop compaction check were
// ~5% of event time). Memory stays bounded at the high-water queue length
// rounded up to a power of two.
type server struct {
	ring       []job  // len a power of two; head slot is in service
	head, tail uint32 // free-running; index = counter & (len−1)
	pending    float64
}

// serverRingInit is the initial ring capacity (must be a power of two);
// queues deeper than this double in place. Eight 16-byte slots keep the
// rings small enough to share a core's L2 with the tracker and the server
// array at N = 10⁴; sixteen read about 10 % slower per job there
// (BenchmarkSimJobs/fast/N=10000).
const serverRingInit = 8

func (s *server) length() int { return int(s.tail - s.head) }

func (s *server) push(j job) {
	if int(s.tail-s.head) == len(s.ring) {
		s.grow()
	}
	s.ring[s.tail&uint32(len(s.ring)-1)] = j
	s.tail++
}

// pop removes the head job and returns the job now at the head — the one
// entering service, meaningful only while the queue is not empty.
func (s *server) pop() (done, next job) {
	mask := uint32(len(s.ring) - 1)
	h := s.head
	done, next = s.ring[h&mask], s.ring[(h+1)&mask]
	s.head = h + 1
	return done, next
}

func (s *server) grow() {
	oldMask := uint32(len(s.ring) - 1)
	nr := make([]job, 2*len(s.ring))
	newMask := uint32(len(nr) - 1)
	for j := s.head; j != s.tail; j++ {
		nr[j&newMask] = s.ring[j&oldMask]
	}
	s.ring = nr
}

// result converts a merged measurement stream into the public Result.
func result(s *stats.Stream) Result {
	return Result{
		MeanDelay: s.Sojourns.Mean(),
		MeanWait:  s.Sojourns.Mean() - 1,
		HalfWidth: s.Batch.HalfWidth(),
		Jobs:      s.Sojourns.N(),
		MaxQueue:  s.MaxQueue,
		P50:       s.Quantile(0.50),
		P95:       s.Quantile(0.95),
		P99:       s.Quantile(0.99),
	}
}

// Run simulates a dispatched server farm: arrivals from opts.Arrival (at
// aggregate rate ρ·Σspeeds) hit a central dispatcher that routes each job
// via opts.Policy; servers serve FIFO, drawing unit-mean requirements from
// opts.Service scaled by their speed factor. The zero-value options are
// the paper's system — Poisson arrivals of rate ρN, SQ(d) sampling d
// distinct servers uniformly and joining the shortest (ties uniform),
// exponential unit-rate homogeneous servers.
// The first Warmup departures are discarded, then the sojourn times of
// Jobs departures are averaged.
//
// With opts.Replications = R > 1 the measured-job budget is split across R
// independently seeded streams (seeds derived from opts.Seed via its own
// PCG stream) executed concurrently through the engine pool; their moments
// are pooled into one Result.
func Run(p sqd.Params, opts Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	opts.setDefaults()
	w, err := resolve(p, opts)
	if err != nil {
		return Result{}, err
	}
	if opts.Replications == 1 {
		return result(runStream(p, w, opts.Jobs, opts.Warmup, opts.BatchSize, opts.Seed, opts.Trace)), nil
	}

	r := int64(opts.Replications)
	// Derive one independent seed per replication from the master seed.
	seedRNG := rand.New(rand.NewPCG(opts.Seed, 0x9e3779b97f4a7c15))
	seeds := make([]uint64, r)
	for i := range seeds {
		seeds[i] = seedRNG.Uint64()
	}
	streams, err := engine.Collect(engine.New(opts.Workers), int(r), func(i int) (*stats.Stream, error) {
		jobs := opts.Jobs / r
		if int64(i) < opts.Jobs%r {
			jobs++
		}
		return runStream(p, w, jobs, opts.Warmup, opts.BatchSize, seeds[i], opts.Trace), nil
	})
	if err != nil {
		return Result{}, err
	}
	merged := streams[0]
	for _, s := range streams[1:] {
		merged.Merge(s)
	}
	return result(merged), nil
}

// runStream runs one discrete-event stream. The wiring must have passed
// resolve, so instantiating its pieces cannot fail.
func runStream(p sqd.Params, w wiring, jobs, warmup, batchSize int64, seed uint64, rec *trace.Recorder) *stats.Stream {
	res := newSimStream(batchSize)
	tr := newTypedRunner(p, w, warmup, res, seed)
	if rec != nil {
		tr.st.tr = newSimTracer(rec, p.N)
	}
	tr.run(jobs)
	return res
}
