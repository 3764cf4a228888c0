// Package embedded implements the embedded-chain view of Theorem 2: the
// lower-bound (jockeying) model observed just before arrival instants, for
// *renewal* arrival processes with phase-type interarrival laws (mixtures
// of Erlangs), which LawOf maps workload arrival specs onto; Sigma is the
// one σ-root for every arrival spec, deterministic included.
//
// For Poisson arrivals this reproduces the CTMC lower bound exactly (a
// tested identity); beyond Poisson it realizes the paper's Theorem 2
// setting computationally: the embedded stationary distribution exhibits
// the modified vector-geometric tail π_{q+1} = σᴺ·π_q with σ the root of
// x = Σ xᵏβ_k — solved by package asym on the β of Law.Betas — which the
// tests verify block by block.
//
// Construction: with Q_s the service-only generator of the lower-bound
// model on a deep truncation of S (departures and jockeying only), one
// exponential stage of rate ν propagates a distribution by the resolvent
// S_ν = ν(νI − Q_s)⁻¹; an Erlang-r branch applies S_ν r times; mixtures
// are weighted sums. The embedded kernel is M = A·P with A the arrival
// operator (SQ(d) polling plus jockey redirect) and P the interarrival
// propagator. Time averages follow from the Markov-renewal reward theorem
// with per-stage rewards (νI − Q_s)⁻¹·w.
package embedded

import (
	"fmt"
	"math"

	"finitelb/internal/asym"
	"finitelb/internal/mat"
	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
	"finitelb/internal/workload"
)

// Branch is one Erlang branch of an interarrival law: Stages exponential
// stages of the given Rate, selected with probability Weight.
type Branch struct {
	Weight float64
	Stages int
	Rate   float64
}

// Law is a mixture-of-Erlangs interarrival distribution, dense in the
// space of positive laws and closed under everything this package needs.
// LawOf builds it from a workload arrival, validated by that arrival's
// own NewSource.
type Law struct {
	Branches []Branch
}

// LawOf returns the phase-type form of arrival process a at the given
// aggregate rate: Poisson is one stage, erlang:K is K stages at K·rate,
// and hyperexp is the two branches of workload.HyperExp.Phases. A nil
// arrival is Poisson, as in the simulator. Deterministic and user-supplied
// laws have no phase-type form and are an error.
func LawOf(a workload.Arrival, rate float64) (Law, error) {
	if a == nil {
		a = workload.Poisson{}
	}
	if _, err := a.NewSource(rate); err != nil {
		return Law{}, err
	}
	switch a := a.(type) {
	case workload.Poisson:
		return Law{Branches: []Branch{{Weight: 1, Stages: 1, Rate: rate}}}, nil
	case workload.ErlangArrivals:
		return Law{Branches: []Branch{{Weight: 1, Stages: a.K, Rate: float64(a.K) * rate}}}, nil
	case workload.HyperExp:
		p, l1, l2 := a.Phases(rate)
		return Law{Branches: []Branch{{Weight: p, Stages: 1, Rate: l1}, {Weight: 1 - p, Stages: 1, Rate: l2}}}, nil
	}
	return Law{}, fmt.Errorf("embedded: %v arrivals are not phase-type", a)
}

// Sigma returns σ, the root of Theorem 2's x = Σ xᵏβ_k, for arrival
// process a at per-server utilization rho with unit-rate service (σ = ρ
// for Poisson, Theorem 3). Deterministic arrivals, which have no
// phase-type form, use their closed-form β.
func Sigma(a workload.Arrival, rho float64) (float64, error) {
	if _, fixed := a.(workload.DeterministicArrivals); fixed {
		return asym.SolveSigma(asym.DeterministicBetas(rho, 1), 0)
	}
	law, err := LawOf(a, rho)
	if err != nil {
		return 0, err
	}
	return asym.SolveSigma(law.Betas(1), 0)
}

// Mean returns the law's mean interarrival time.
func (l Law) Mean() float64 {
	m := 0.0
	for _, b := range l.Branches {
		m += b.Weight * float64(b.Stages) / b.Rate
	}
	return m
}

// Betas returns β_k, the probability that exactly k services complete at
// a busy rate-mu exponential server during one interarrival. An Erlang-r
// branch of stage rate ν contributes the negative binomial
// C(k+r−1, k)·(ν/(ν+μ))ʳ·(μ/(ν+μ))ᵏ — k service wins before the r-th
// stage win of independent exponential races; for r = 1 this is
// Theorem 3's closed form (ν/(ν+μ))·(μ/(ν+μ))ᵏ.
func (l Law) Betas(mu float64) asym.BetaFunc {
	return func(k int) float64 {
		beta := 0.0
		for _, b := range l.Branches {
			// ln C(k+r−1, k) by log-gamma: O(1) in k, exactly 0 for r = 1.
			r, kf := float64(b.Stages), float64(k)
			top, _ := math.Lgamma(kf + r)
			kfact, _ := math.Lgamma(kf + 1)
			rfact, _ := math.Lgamma(r)
			logBeta := top - kfact - rfact + r*math.Log(b.Rate/(b.Rate+mu)) + kf*math.Log(mu/(b.Rate+mu))
			beta += b.Weight * math.Exp(logBeta)
		}
		return beta
	}
}

// SCV returns the law's squared coefficient of variation, E[X²]/E[X]² − 1;
// an Erlang-r branch of stage rate ν has E[X²] = r(r+1)/ν².
func (l Law) SCV() float64 {
	m2 := 0.0
	for _, b := range l.Branches {
		m2 += b.Weight * float64(b.Stages*(b.Stages+1)) / (b.Rate * b.Rate)
	}
	m := l.Mean()
	return m2/(m*m) - 1
}

// Chain is the assembled embedded chain of the GI lower-bound model.
type Chain struct {
	P   sqd.BoundParams
	Law Law

	ix      *statespace.Index
	kernel  *mat.Dense // M = A·P, row-stochastic
	arrival *mat.Dense // A: state just before arrival → state just after
	reward  []float64  // E[∫ waiting(X_t) dt over one interarrival | post-arrival state]
}

// Result holds the embedded-chain solution.
type Result struct {
	Pi          []float64 // embedded stationary distribution (pre-arrival states)
	MeanWaiting float64   // time-average number of waiting jobs
	MeanWait    float64   // mean waiting time per job (Little)
	MeanDelay   float64   // mean sojourn time per job
}

// New assembles the embedded chain on S ∩ {#m ≤ maxTotal}. The arrival
// rate implied by the law must match ρ·N: law.Mean() = 1/(ρN); this is
// enforced to one part in 1e-6 to catch unit mistakes early.
func New(p sqd.BoundParams, law Law, maxTotal int) (*Chain, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lamN := p.TotalArrivalRate()
	if m := law.Mean(); m < (1/lamN)*(1-1e-6) || m > (1/lamN)*(1+1e-6) {
		return nil, fmt.Errorf("embedded: law mean %v does not match 1/(ρN) = %v", m, 1/lamN)
	}
	if maxTotal < (p.N-1)*p.T+3*p.N {
		return nil, fmt.Errorf("embedded: truncation %d too shallow for N=%d T=%d", maxTotal, p.N, p.T)
	}

	// Everything downstream is dense (resolvents, kernel): refuse sizes
	// that would silently eat gigabytes, before enumerating them. The GI
	// construction targets the paper's small-N regime.
	const maxStates = 4000
	var states []statespace.State
	for total := 0; total <= maxTotal; total++ {
		states = append(states, statespace.StatesWithTotal(p.N, p.T, total)...)
		if len(states) > maxStates {
			return nil, fmt.Errorf("embedded: truncation %d exceeds the dense-solver budget of %d states; lower maxTotal, T or N", maxTotal, maxStates)
		}
	}
	c := &Chain{P: p, Law: law}
	c.ix = statespace.NewIndex(states)
	n := c.ix.Len()
	lb := &sqd.LowerBound{P: p}

	// Arrival operator: the SQ(d) polling probabilities with the jockey
	// redirect, normalized by λN. Arrivals at the truncation frontier are
	// clipped to stay inside the enumeration (the frontier mass must be
	// negligible; callers confirm via the tail of Pi).
	c.arrival = mat.NewDense(n, n)
	// Service-only generator Q_s: departures and their jockey redirects.
	qs := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		m := c.ix.At(i)
		for _, tr := range sqd.Merged(lb.Transitions(m)) {
			j, ok := c.ix.Of(tr.To)
			switch {
			case tr.To.Total() == m.Total()+1:
				if !ok {
					j = i // clip at the frontier
				}
				c.arrival.Inc(i, j, tr.Rate/lamN)
			case tr.To.Total() == m.Total()-1:
				if !ok {
					return nil, fmt.Errorf("embedded: departure %v → %v escaped the enumeration", m, tr.To)
				}
				if j != i {
					qs.Inc(i, j, tr.Rate)
					qs.Inc(i, i, -tr.Rate)
				}
			default:
				return nil, fmt.Errorf("embedded: transition %v → %v changes total by more than one", m, tr.To)
			}
		}
	}

	// Interarrival propagator P and the Markov-renewal reward vector, per
	// branch: stage resolvents S_ν = ν(νI − Q_s)⁻¹ and R_ν = (νI − Q_s)⁻¹.
	wait := make([]float64, n)
	for i := 0; i < n; i++ {
		wait[i] = float64(c.ix.At(i).WaitingJobs())
	}
	prop := mat.NewDense(n, n)
	c.reward = make([]float64, n)
	for _, b := range c.Law.Branches {
		shifted := mat.Identity(n).Scale(b.Rate).Sub(qs)
		f, err := mat.Factorize(shifted)
		if err != nil {
			return nil, fmt.Errorf("embedded: resolvent at rate %v: %w", b.Rate, err)
		}
		rw := f.Solve(wait) // R_ν·w
		stage := f.SolveMat(mat.Identity(n).Scale(b.Rate))
		// Accumulate Σ_{j<r} S_ν^j·(R_ν·w) and S_ν^r.
		cur := mat.Identity(n)
		for j := 0; j < b.Stages; j++ {
			contrib := cur.MulVec(rw)
			for i := range c.reward {
				c.reward[i] += b.Weight * contrib[i]
			}
			cur = cur.Mul(stage)
		}
		prop = prop.Add(cur.Scale(b.Weight))
	}
	c.kernel = c.arrival.Mul(prop)
	return c, nil
}

// Solve computes the embedded stationary distribution and the
// time-average delay metrics.
func (c *Chain) Solve() (*Result, error) {
	n := c.ix.Len()
	// π(M − I) = 0 with one equation replaced by normalization.
	sys := c.kernel.Sub(mat.Identity(n))
	for i := 0; i < n; i++ {
		sys.Set(i, 0, 1)
	}
	rhs := make([]float64, n)
	rhs[0] = 1
	pi, err := mat.SolveLeft(sys, rhs)
	if err != nil {
		return nil, fmt.Errorf("embedded: stationary solve: %w", err)
	}
	for _, v := range pi {
		if v < -1e-8 {
			return nil, fmt.Errorf("embedded: negative stationary mass %v (truncation too shallow?)", v)
		}
	}
	res := &Result{Pi: pi}
	// Markov-renewal reward: cycle reward / cycle length.
	postArrival := c.arrival.VecMul(pi)
	res.MeanWaiting = mat.Dot(postArrival, c.reward) / c.Law.Mean()
	lamN := c.P.TotalArrivalRate()
	res.MeanWait = res.MeanWaiting / lamN
	res.MeanDelay = res.MeanWait + 1
	return res, nil
}

// BlockMass returns the embedded stationary mass of block q ≥ 0 of the
// paper's partition, for verifying Theorem 2's σᴺ tail.
func (c *Chain) BlockMass(pi []float64, q int) float64 {
	mass := 0.0
	for i, p := range pi {
		if statespace.BlockOf(c.P.N, c.P.T, c.ix.At(i).Total()) == q {
			mass += p
		}
	}
	return mass
}

// FrontierMass returns the stationary mass within one block of the
// truncation frontier — the caller's check that maxTotal was deep enough.
func (c *Chain) FrontierMass(pi []float64) float64 {
	maxTotal := 0
	for i := 0; i < c.ix.Len(); i++ {
		if t := c.ix.At(i).Total(); t > maxTotal {
			maxTotal = t
		}
	}
	mass := 0.0
	for i, p := range pi {
		if c.ix.At(i).Total() > maxTotal-c.P.N {
			mass += p
		}
	}
	return mass
}
