package finitelb

import (
	"errors"
	"fmt"

	"finitelb/internal/asym"
	"finitelb/internal/markov"
	"finitelb/internal/qbd"
	"finitelb/internal/sim"
	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
	"finitelb/internal/workload"
)

// ErrUnstable reports that the upper-bound model has insufficient effective
// capacity at the requested utilization and threshold T: the wasted
// services and phantom arrivals of the modified system push its drift past
// the stability boundary even though the real system (ρ < 1) is stable.
// Increase T (tighter, costlier) or lower ρ.
var ErrUnstable = qbd.ErrUnstable

// System describes an SQ(d) load-balancing system: N parallel unit-rate
// FIFO servers fed by a Poisson stream of rate ρ·N through a dispatcher
// that samples d distinct servers per job and picks the least loaded.
type System struct {
	p sqd.Params
}

// NewSystem validates and builds a system description.
// n is the number of servers, d the number of choices (1 ≤ d ≤ n), and
// rho the per-server utilization (0 < rho < 1).
func NewSystem(n, d int, rho float64) (*System, error) {
	p := sqd.Params{N: n, D: d, Rho: rho}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &System{p: p}, nil
}

// N returns the number of servers.
func (s *System) N() int { return s.p.N }

// D returns the number of choices per arrival.
func (s *System) D() int { return s.p.D }

// Rho returns the per-server utilization.
func (s *System) Rho() float64 { return s.p.Rho }

// AsymptoticDelay returns Mitzenmacher's N→∞ mean sojourn time (Eq. (16)),
// the baseline the paper shows to be misleading at small N and high ρ.
func (s *System) AsymptoticDelay() float64 {
	return asym.Delay(s.p.D, s.p.Rho)
}

// BoundResult is one side of a finite-regime delay bound.
type BoundResult struct {
	MeanDelay   float64 // bound on the mean sojourn time
	MeanWait    float64 // bound on the mean waiting time (sojourn − service)
	MeanWaiting float64 // bound on E[# jobs waiting] (not in service)

	T            int // truncation threshold used
	BlockSize    int // per-block state count C(N+T−1, T)
	LRIterations int // logarithmic-reduction iterations (0 for Theorem 3 path)
}

// Bounds packages the two sides.
type Bounds struct {
	Lower BoundResult
	Upper BoundResult
}

// LowerBound computes the finite-regime lower bound on the mean delay with
// threshold T via Theorem 3's improved method (scalar rate ρᴺ): the larger
// T, the tighter (and costlier) the bound.
func (s *System) LowerBound(t int) (BoundResult, error) {
	model := &sqd.LowerBound{P: sqd.BoundParams{Params: s.p, T: t}}
	sol, err := qbd.Solve(model, qbd.Options{ImprovedLB: true})
	if err != nil {
		return BoundResult{}, fmt.Errorf("finitelb: lower bound: %w", err)
	}
	return boundResult(sol, t), nil
}

// UpperBound computes the finite-regime upper bound on the mean delay with
// threshold T. It returns an error wrapping ErrUnstable when the modified
// system is not stable at this (ρ, T); larger T both tightens the bound
// and widens its stability region, at a block size growing as C(N+T−1, T).
func (s *System) UpperBound(t int) (BoundResult, error) {
	model := &sqd.UpperBound{P: sqd.BoundParams{Params: s.p, T: t}}
	sol, err := qbd.Solve(model, qbd.Options{})
	if err != nil {
		if errors.Is(err, qbd.ErrUnstable) {
			return BoundResult{}, fmt.Errorf("finitelb: upper bound with T=%d: %w", t, err)
		}
		return BoundResult{}, fmt.Errorf("finitelb: upper bound: %w", err)
	}
	return boundResult(sol, t), nil
}

// DelayBounds computes both bounds with the same threshold T.
func (s *System) DelayBounds(t int) (Bounds, error) {
	lo, err := s.LowerBound(t)
	if err != nil {
		return Bounds{}, err
	}
	hi, err := s.UpperBound(t)
	if err != nil {
		return Bounds{}, err
	}
	return Bounds{Lower: lo, Upper: hi}, nil
}

// StableBounds raises T from 3 until the upper-bound chain is stable and
// returns that bracket with its T: Section V's accuracy/complexity
// trade-off as one procedure. Larger T tightens the bracket and widens
// the upper bound's stability region, at block size C(N+T−1, T); the walk
// gives up, with the last instability as the reason, once the block would
// exceed maxBlock.
func (s *System) StableBounds(maxBlock int) (Bounds, int, error) {
	err := fmt.Errorf("no stable bracket within block budget %d", maxBlock)
	for t := 3; statespace.Binomial(s.p.N+t-1, t) <= float64(maxBlock); t++ {
		b, terr := s.DelayBounds(t)
		if terr == nil {
			return b, t, nil
		}
		err = terr
		if !errors.Is(terr, ErrUnstable) {
			break
		}
	}
	return Bounds{}, 0, err
}

func boundResult(sol *qbd.Solution, t int) BoundResult {
	return BoundResult{
		MeanDelay:    sol.MeanDelay,
		MeanWait:     sol.MeanWait,
		MeanWaiting:  sol.MeanWaiting,
		T:            t,
		BlockSize:    sol.Blocks.BlockSize(),
		LRIterations: sol.LRIterations,
	}
}

// ExactResult is the numerically exact stationary solution (small N only).
type ExactResult struct {
	MeanDelay float64 // exact mean sojourn time
	MeanWait  float64 // exact mean waiting time
	// TruncationMass is the stationary probability of the clipped frontier
	// (any queue at the cap); it bounds the numerical truncation error and
	// should be ≪ 1e-8 for trustworthy digits.
	TruncationMass float64
}

// ExactDelay solves the unmodified SQ(d) Markov chain on a queue-capped
// space. The space has C(cap+N, N) states, so this is only feasible for
// small N; pass cap 0 for an automatic choice. It is the ground truth the
// bounds are validated against.
func (s *System) ExactDelay(cap int) (ExactResult, error) {
	res, err := markov.SolveExact(s.p, markov.ExactOptions{QueueCap: cap})
	if err != nil {
		return ExactResult{}, fmt.Errorf("finitelb: exact solve: %w", err)
	}
	return ExactResult{
		MeanDelay:      res.MeanDelay,
		MeanWait:       res.MeanWait,
		TruncationMass: res.TailMass,
	}, nil
}

// SimOptions configures Simulate.
type SimOptions struct {
	Jobs   int64  // measured departures (default 1e6)
	Warmup int64  // discarded leading departures (default Jobs/10)
	Seed   uint64 // RNG seed (default 1)
	// Replications splits the job budget across R independently seeded
	// streams run concurrently and pooled into one estimate (default 1,
	// the bit-exact serial path; each stream pays the full Warmup).
	Replications int

	// Arrival selects the interarrival process by spec string:
	// "poisson" (default — the only process the QBD bracket covers),
	// "deterministic", "erlang:K" (smoother), "hyperexp:CV2" (bursty).
	// LowerBoundGI and Sigma take the same specs.
	Arrival string
	// Service selects the unit-mean service-time law: "exponential"
	// (default), "deterministic", "erlang:K", "pareto:ALPHA[,h=H]"
	// (heavy-tailed bounded Pareto).
	Service string
	// Policy selects the dispatch policy: "sqd" (default, using the
	// system's d; "sqd:D" overrides it), "jsq", "jiq", "lwl"
	// (least-work-left), "round-robin", "random".
	Policy string
	// Speeds declares a heterogeneous fleet as a comma list of per-server
	// speed factors ("1,1,2.5") or SPEEDxCOUNT groups ("1x8,4x2"); empty
	// means homogeneous unit speed. The aggregate arrival rate scales with
	// the total speed so Rho stays the system utilization.
	Speeds string
}

// SimResult reports a simulation estimate.
type SimResult struct {
	MeanDelay float64 // estimated mean sojourn time
	MeanWait  float64 // estimated mean waiting time
	HalfWidth float64 // 95% confidence half-width on MeanDelay
	Jobs      int64   // measured departures
	MaxQueue  int     // longest queue observed

	// Sojourn-time quantiles, in service times (sketch-estimated within
	// 1% relative error).
	P50, P95, P99 float64
}

// Simulate runs the discrete-event simulator. With zero-valued workload
// specs it is the paper's baseline — Poisson arrivals, exponential
// homogeneous servers, SQ(d) — bit-identical run for run (the paper's
// plots use 1e8 jobs per point; adjust Jobs for full fidelity). The
// Arrival, Service, Policy, and Speeds specs open every other scenario;
// those combinations are beyond the analytic bounds, which is the point.
func (s *System) Simulate(opts SimOptions) (SimResult, error) {
	arrival, err := workload.ParseArrival(opts.Arrival)
	if err != nil {
		return SimResult{}, fmt.Errorf("finitelb: simulate: %w", err)
	}
	service, err := workload.ParseService(opts.Service)
	if err != nil {
		return SimResult{}, fmt.Errorf("finitelb: simulate: %w", err)
	}
	policy, err := workload.ParsePolicy(opts.Policy)
	if err != nil {
		return SimResult{}, fmt.Errorf("finitelb: simulate: %w", err)
	}
	speeds, err := workload.ParseSpeeds(opts.Speeds, s.p.N)
	if err != nil {
		return SimResult{}, fmt.Errorf("finitelb: simulate: %w", err)
	}
	res, err := sim.Run(s.p, sim.Options{
		Jobs: opts.Jobs, Warmup: opts.Warmup, Seed: opts.Seed, Replications: opts.Replications,
		Arrival: arrival, Service: service, Policy: policy, Speeds: speeds,
	})
	if err != nil {
		return SimResult{}, fmt.Errorf("finitelb: simulate: %w", err)
	}
	return SimResult{
		MeanDelay: res.MeanDelay,
		MeanWait:  res.MeanWait,
		HalfWidth: res.HalfWidth,
		Jobs:      res.Jobs,
		MaxQueue:  res.MaxQueue,
		P50:       res.P50,
		P95:       res.P95,
		P99:       res.P99,
	}, nil
}

// DelayDistribution is the full stationary sojourn-time law of the exact
// SQ(d) model (small N), computed as an Erlang mixture over the
// arrival-selected queue length (PASTA). It extends the paper's mean-delay
// focus to SLO-style tail questions.
type DelayDistribution struct {
	d *markov.Distribution
}

// Tail returns P(sojourn > t), t in service times.
func (dd *DelayDistribution) Tail(t float64) float64 { return dd.d.DelayTail(t) }

// Quantile returns the q-quantile of the sojourn time.
func (dd *DelayDistribution) Quantile(q float64) float64 { return dd.d.Quantile(q, 1e-9) }

// ServerTail returns P(a uniformly chosen server holds ≥ k jobs) — the
// finite-N counterpart of the asymptotic fixed point (AsymptoticQueueTail).
func (dd *DelayDistribution) ServerTail(k int) float64 {
	if k < 0 || k >= len(dd.d.ServerTail) {
		return 0
	}
	return dd.d.ServerTail[k]
}

// ExactDistribution solves the exact chain (small N; see ExactDelay) and
// returns the sojourn-time distribution alongside the mean-delay result.
func (s *System) ExactDistribution(cap int) (ExactResult, *DelayDistribution, error) {
	res, dist, err := markov.SolveExactDistribution(s.p, markov.ExactOptions{QueueCap: cap})
	if err != nil {
		return ExactResult{}, nil, fmt.Errorf("finitelb: exact distribution: %w", err)
	}
	er := ExactResult{
		MeanDelay:      res.MeanDelay,
		MeanWait:       res.MeanWait,
		TruncationMass: res.TailMass,
	}
	return er, &DelayDistribution{d: dist}, nil
}

// DelayBracket brackets the stationary sojourn-time law of SQ(d) between
// the Erlang mixtures induced by the two bound chains' arrival-join
// distributions (qbd.JoinDistribution): each side is Σ_k w[k]·Erlang(k+1, 1)
// with w the probability an arrival joins a queue holding k jobs in that
// bound model.
//
// Honesty note: the paper's Theorem 1 orders the *mean* delays of the three
// chains; the quantile bracket below is the natural distributional transfer
// and carries no precedence proof. Empirically (package tests,
// internal/lb/calibrate_test.go) the exact chain's quantiles fall inside
// [Lower, Upper] up to a sub-0.1% crossing of the lower side at small T
// that shrinks as T grows; both sides converge to the exact law.
type DelayBracket struct {
	lower, upper *markov.Distribution
}

// Tail returns the two models' P(sojourn > t), t in service times.
func (b *DelayBracket) Tail(t float64) (lower, upper float64) {
	return b.lower.DelayTail(t), b.upper.DelayTail(t)
}

// Quantile returns the two models' q-quantiles of the sojourn time.
func (b *DelayBracket) Quantile(q float64) (lower, upper float64) {
	return b.lower.Quantile(q, 1e-9), b.upper.Quantile(q, 1e-9)
}

// Mean returns the two mixtures' mean sojourns. These are the Erlang-mixture
// means, not the theorem-backed mean bounds — use DelayBounds for those.
func (b *DelayBracket) Mean() (lower, upper float64) {
	return b.lower.MeanDelay(), b.upper.MeanDelay()
}

// DelayDistributionBracket solves both bound chains with threshold T and
// returns the distributional bracket. The lower side is solved by the full
// matrix-geometric pipeline, not by Theorem 3's scalar shortcut that
// LowerBound uses: the two give the same mean delay
// (TestLowerBoundPathsAgree) but not the same numbers under it — their π₁
// differ by up to 1.9e-6 and the join weights by 1.1e-7 at block 330 —
// and the quantiles built on this path are pinned to 1e-9
// (bench/goldens/solve.json, p99_lower). Returns ErrUnstable (wrapped)
// when the upper-bound chain is unstable at this (ρ, T).
func (s *System) DelayDistributionBracket(t int) (*DelayBracket, error) {
	lbModel := &sqd.LowerBound{P: sqd.BoundParams{Params: s.p, T: t}}
	lbSol, err := qbd.Solve(lbModel, qbd.Options{})
	if err != nil {
		return nil, fmt.Errorf("finitelb: delay bracket lower: %w", err)
	}
	wLo, err := lbSol.JoinDistribution()
	if err != nil {
		return nil, fmt.Errorf("finitelb: delay bracket lower: %w", err)
	}
	ubModel := &sqd.UpperBound{P: sqd.BoundParams{Params: s.p, T: t}}
	ubSol, err := qbd.Solve(ubModel, qbd.Options{})
	if err != nil {
		return nil, fmt.Errorf("finitelb: delay bracket upper with T=%d: %w", t, err)
	}
	wHi, err := ubSol.JoinDistribution()
	if err != nil {
		return nil, fmt.Errorf("finitelb: delay bracket upper: %w", err)
	}
	return &DelayBracket{
		lower: &markov.Distribution{Selected: wLo},
		upper: &markov.Distribution{Selected: wHi},
	}, nil
}

// AsymptoticQueueTail returns Mitzenmacher's fixed point s_k — the N → ∞
// fraction of servers with at least k jobs, ρ^{(dᵏ−1)/(d−1)}.
func AsymptoticQueueTail(d int, rho float64, k int) float64 {
	return asym.QueueTail(d, rho, k)
}

// AsymptoticDelayTail returns the N → ∞ sojourn tail P(T > t) under SQ(d).
func AsymptoticDelayTail(d int, rho float64, t float64) float64 {
	return asym.DelayTail(d, rho, t)
}

// AsymptoticDelay is the package-level convenience for Eq. (16) without
// constructing a System: the formula does not depend on N.
func AsymptoticDelay(d int, rho float64) float64 { return asym.Delay(d, rho) }
