// Package markov assembles CTMC generator matrices from sqd models over
// explicit state enumerations and computes stationary distributions and
// delay metrics. It provides the exact-model ground truth that the
// matrix-geometric bounds are validated against.
package markov

import (
	"fmt"
	"math"

	"finitelb/internal/mat"
	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
)

// MissingPolicy controls what happens when a transition target is not part
// of the enumerated state space.
type MissingPolicy int

const (
	// MissingError treats an unindexed target as a fatal modelling bug.
	MissingError MissingPolicy = iota
	// MissingDrop silently drops the transition, turning the enumeration
	// boundary into a loss surface. Used to clip the exact model at a
	// queue cap; the dropped mass is reported so callers can check that
	// the truncation error is negligible.
	MissingDrop
)

// GeneratorTranspose builds Qᵀ in CSR form for model over the states of ix.
// The transpose orientation is what the Gauss–Seidel stationary solver
// consumes. It returns the matrix and the number of dropped transitions.
func GeneratorTranspose(model sqd.Model, ix *statespace.Index, policy MissingPolicy) (*mat.CSR, int, error) {
	n := ix.Len()
	ts := make([]mat.Triplet, 0, 8*n)
	dropped := 0
	for i := 0; i < n; i++ {
		m := ix.At(i)
		var out float64
		for _, tr := range sqd.Merged(model.Transitions(m)) {
			j, ok := ix.Of(tr.To)
			if !ok {
				if policy == MissingError {
					return nil, 0, fmt.Errorf("markov: transition %v → %v leaves the enumerated space", m, tr.To)
				}
				dropped++
				continue
			}
			if j == i {
				continue // self-loops are no-ops in a generator
			}
			ts = append(ts, mat.Triplet{Row: j, Col: i, Val: tr.Rate})
			out += tr.Rate
		}
		ts = append(ts, mat.Triplet{Row: i, Col: i, Val: -out})
	}
	return mat.NewCSR(n, n, ts), dropped, nil
}

// GeneratorDense builds Q as a dense matrix; used by tests and by the QBD
// boundary construction where blocks are small.
func GeneratorDense(model sqd.Model, ix *statespace.Index, policy MissingPolicy) (*mat.Dense, int, error) {
	n := ix.Len()
	q := mat.NewDense(n, n)
	dropped := 0
	for i := 0; i < n; i++ {
		m := ix.At(i)
		for _, tr := range sqd.Merged(model.Transitions(m)) {
			j, ok := ix.Of(tr.To)
			if !ok {
				if policy == MissingError {
					return nil, 0, fmt.Errorf("markov: transition %v → %v leaves the enumerated space", m, tr.To)
				}
				dropped++
				continue
			}
			if j == i {
				continue
			}
			q.Inc(i, j, tr.Rate)
			q.Inc(i, i, -tr.Rate)
		}
	}
	return q, dropped, nil
}

// Result summarizes a stationary solve.
type Result struct {
	Pi          []float64 // stationary distribution over the enumeration
	MeanJobs    float64   // E[#m]
	MeanWaiting float64   // E[Σ max(m_i − 1, 0)]
	MeanDelay   float64   // mean sojourn time E[waiting]/(λN) + 1 (Little)
	MeanWait    float64   // mean waiting time E[waiting]/(λN)
	TailMass    float64   // probability mass on the top total-jobs layer
}

// metrics fills the delay metrics of r from pi over ix.
func metrics(p sqd.Params, ix *statespace.Index, pi []float64) Result {
	r := Result{Pi: pi}
	maxTotal := 0
	for i := 0; i < ix.Len(); i++ {
		if t := ix.At(i).Total(); t > maxTotal {
			maxTotal = t
		}
	}
	for i, prob := range pi {
		s := ix.At(i)
		r.MeanJobs += prob * float64(s.Total())
		r.MeanWaiting += prob * float64(s.WaitingJobs())
		if s.Total() == maxTotal {
			r.TailMass += prob
		}
	}
	lamN := p.TotalArrivalRate()
	r.MeanWait = r.MeanWaiting / lamN
	r.MeanDelay = r.MeanWait + 1
	return r
}

// ExactOptions tunes SolveExact.
type ExactOptions struct {
	QueueCap int // per-queue truncation K (default: auto from ρ)
}

// The exact solves' Gauss–Seidel tolerance and sweep budget.
const (
	gsTol       = 1e-12
	gsMaxSweeps = 200000
)

func (o *ExactOptions) setDefaults(p sqd.Params) {
	if o.QueueCap <= 0 {
		// The per-queue tail decays at least geometrically with ratio ρ
		// (doubly exponentially for d ≥ 2); size the cap so ρ^K is far
		// below the solver tolerance...
		k := int(math.Ceil(math.Log(1e-14) / math.Log(p.Rho)))
		if p.D >= 2 {
			// ...but SQ(d≥2) tails collapse like ρ^(dᵏ), so a shallow cap
			// is already effectively infinite (TailMass reports the error).
			k = 24
		}
		if k < 10 {
			k = 10
		}
		// ...and never let the enumeration C(K+N, N) outgrow memory: shrink
		// K until the state count fits a fixed budget.
		const maxStates = 2 << 20
		for k > 4 && statespace.Binomial(k+p.N, p.N) > maxStates {
			k--
		}
		o.QueueCap = k
	}
}

// SolveExact computes the stationary delay of the exact SQ(d) model on the
// queue-capped space {m sorted : m1 ≤ K}. Arrivals that would exceed the
// cap are dropped (loss truncation); TailMass reports the stationary mass
// on the largest enumerated total so callers can confirm the cap is
// effectively infinite. Only feasible for small N — the space has
// C(K+N, N) states.
func SolveExact(p sqd.Params, opts ExactOptions) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	opts.setDefaults(p)
	states := statespace.EnumCapped(p.N, opts.QueueCap)
	ix := statespace.NewIndex(states)
	qt, _, err := GeneratorTranspose(&sqd.Exact{P: p}, ix, MissingDrop)
	if err != nil {
		return Result{}, err
	}
	pi, err := mat.StationaryGS(qt, gsTol, gsMaxSweeps)
	if err != nil {
		return Result{}, fmt.Errorf("markov: exact solve N=%d d=%d ρ=%v: %w", p.N, p.D, p.Rho, err)
	}
	res := metrics(p, ix, pi)
	// Recompute tail mass as the probability of any queue at the cap: the
	// quantity that actually bounds the truncation error.
	res.TailMass = 0
	for i, prob := range pi {
		if ix.At(i)[0] == opts.QueueCap {
			res.TailMass += prob
		}
	}
	return res, nil
}

// SolveTruncated computes the stationary delay of an arbitrary model on an
// explicit finite enumeration. Used to solve the bound models by brute
// force (for cross-validation of the matrix-geometric solver) on
// S ∩ {#m ≤ maxTotal}.
func SolveTruncated(model sqd.Model, states []statespace.State, tol float64, maxSweeps int) (Result, error) {
	ix := statespace.NewIndex(states)
	qt, _, err := GeneratorTranspose(model, ix, MissingDrop)
	if err != nil {
		return Result{}, err
	}
	pi, err := mat.StationaryGS(qt, tol, maxSweeps)
	if err != nil {
		return Result{}, err
	}
	return metrics(model.Params(), ix, pi), nil
}
