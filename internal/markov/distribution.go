package markov

import (
	"fmt"

	"finitelb/internal/asym"
	"finitelb/internal/mat"
	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
)

// Distribution summarizes the stationary distributional metrics of the
// exact SQ(d) model, beyond the mean that the paper's bounds target.
type Distribution struct {
	// Selected[k] is the probability that an arriving job joins a queue
	// currently holding k jobs (PASTA: arrivals see the stationary state;
	// the polling rates weight the tie groups).
	Selected []float64
	// ServerTail[k] is the stationary probability that a uniformly chosen
	// server holds at least k jobs — the finite-N counterpart of
	// Mitzenmacher's fixed point s_k.
	ServerTail []float64
}

// DelayTail returns P(sojourn > t): a job that joins a queue with k jobs
// ahead of it waits Erlang(k+1, 1) in total, by memorylessness of the
// exponential service.
func (d *Distribution) DelayTail(t float64) float64 {
	sum := 0.0
	for k, pk := range d.Selected {
		if pk == 0 {
			continue
		}
		sum += pk * asym.ErlangTail(k+1, t)
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// MeanDelay returns the mean sojourn implied by the selected-queue
// distribution, Σ_k (k+1)·Selected[k]; it must match the Little's-law mean
// of the stationary solve (tested), providing an internal consistency
// check.
func (d *Distribution) MeanDelay() float64 {
	sum := 0.0
	for k, pk := range d.Selected {
		sum += float64(k+1) * pk
	}
	return sum
}

// Quantile returns the smallest t (to within tol) with P(sojourn ≤ t) ≥ q.
func (d *Distribution) Quantile(q float64, tol float64) float64 {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("markov: quantile level %v outside (0,1)", q))
	}
	if tol <= 0 {
		tol = 1e-9
	}
	lo, hi := 0.0, 1.0
	for d.DelayTail(hi) > 1-q {
		hi *= 2
		if hi > 1e9 {
			return hi
		}
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if d.DelayTail(mid) > 1-q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ExactDistribution computes the stationary distributional metrics of the
// exact model from a SolveExact-style solution. It re-derives the polling
// weights per state, so it needs the same enumeration the solve used.
func ExactDistribution(p sqd.Params, ix *statespace.Index, pi []float64) *Distribution {
	lamN := p.TotalArrivalRate()
	maxLevel := 0
	for i := 0; i < ix.Len(); i++ {
		if l := int(ix.At(i)[0]); l > maxLevel {
			maxLevel = l
		}
	}
	d := &Distribution{
		Selected:   make([]float64, maxLevel+1),
		ServerTail: make([]float64, maxLevel+2),
	}
	for i := 0; i < ix.Len(); i++ {
		m := ix.At(i)
		prob := pi[i]
		if prob == 0 {
			continue
		}
		// Selected-queue distribution: an arrival joins tie group g with
		// probability (group arrival rate)/λN, finding g.Level jobs there.
		for _, g := range m.Groups() {
			if r := sqd.ArrivalRate(p, g); r > 0 {
				d.Selected[g.Level] += prob * r / lamN
			}
		}
		// Server-occupancy marginal.
		for _, v := range m {
			for k := 0; k <= v; k++ {
				d.ServerTail[k] += prob / float64(p.N)
			}
		}
	}
	return d
}

// SolveExactDistribution runs SolveExact and extracts the distributional
// metrics in one call.
func SolveExactDistribution(p sqd.Params, opts ExactOptions) (Result, *Distribution, error) {
	if err := p.Validate(); err != nil {
		return Result{}, nil, err
	}
	opts.setDefaults(p)
	states := statespace.EnumCapped(p.N, opts.QueueCap)
	ix := statespace.NewIndex(states)
	qt, _, err := GeneratorTranspose(&sqd.Exact{P: p}, ix, MissingDrop)
	if err != nil {
		return Result{}, nil, err
	}
	pi, err := mat.StationaryGS(qt, gsTol, gsMaxSweeps)
	if err != nil {
		return Result{}, nil, err
	}
	res := metrics(p, ix, pi)
	return res, ExactDistribution(p, ix, pi), nil
}
