package qbd

import (
	"fmt"

	"finitelb/internal/mat"
	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
)

// joinTerm is one arrival outcome of a state: with probability W (the tie
// group's share of λN) the arriving job joins a queue holding Level jobs.
type joinTerm struct {
	Level int
	W     float64
}

// JoinDistribution returns w, where w[k] is the stationary probability that
// a job arriving to the bound model joins a queue currently holding k jobs
// (PASTA: arrivals see the stationary state; tie groups are weighted by
// their polling rates, exactly as in the exact-chain extraction of
// markov.ExactDistribution).
//
// The redirect semantics of the bound models decide the joined level when
// the nominal target m + e_i would leave S:
//
//   - lower bound: the job effectively joins a shortest queue (the jockeying
//     reading of the redirect), so it finds the min group's level ahead;
//   - upper bound: the job joins the capped top group anyway (the phantoms
//     pad the short queues, not the arrival's own queue), so it finds the
//     top group's level ahead.
//
// Blocks are resolved exactly as in ServerTail: a state of block q ≥ 1 is
// its B1 representative shifted up by q−1 levels, and both the tie-group
// spans and the in-space test of every redirect are shift-invariant, so the
// representative's join terms apply at Level + (q−1). The block walk runs
// until the remaining geometric mass is below 1e-13; that residual is folded
// in at the last explicit shift (an error of at most its own mass on any
// tail probability).
//
// The resulting Erlang-mixture sojourn law Σ_k w[k]·Erlang(k+1, 1) is a
// heuristic transfer of the paper's mean-delay bracket to the full
// distribution: Theorem 1's precedence argument orders the *means*, not the
// quantiles, so the bracket property of the mixture quantiles is validated
// empirically against the exact chain (see delaydist_test.go and the
// calibration tests in internal/lb).
func (s *Solution) JoinDistribution() ([]float64, error) {
	b := s.Blocks
	var lower bool
	switch s.model.(type) {
	case *sqd.LowerBound:
		lower = true
	case *sqd.UpperBound:
		lower = false
	default:
		return nil, fmt.Errorf("qbd: join distribution needs a solution of a paper bound model, got %T", s.model)
	}

	var w []float64
	add := func(level int, mass float64) {
		for len(w) <= level {
			w = append(w, 0)
		}
		w[level] += mass
	}

	// Boundary and B0 states contribute at their concrete levels.
	for i, p := range s.PiBoundary {
		if p == 0 {
			continue
		}
		for _, jt := range joinTerms(b.P, lower, b.Boundary.At(i)) {
			add(jt.Level, p*jt.W)
		}
	}
	terms0 := make([][]joinTerm, len(b.B0))
	for i, st := range b.B0 {
		terms0[i] = joinTerms(b.P, lower, st)
	}
	for i, p := range s.Pi0 {
		for _, jt := range terms0[i] {
			add(jt.Level, p*jt.W)
		}
	}

	// Repeating blocks: precompute the B1 representatives' join terms once,
	// then walk π_q = π_1·R^{q−1}, shifting levels by q−1.
	terms1 := make([][]joinTerm, len(b.B1))
	for i, st := range b.B1 {
		terms1[i] = joinTerms(b.P, lower, st)
	}
	piQ := s.Pi1
	q := 1
	const residualTol = 1e-13
	for mat.VecSum(piQ) > residualTol {
		for i, p := range piQ {
			if p == 0 {
				continue
			}
			for _, jt := range terms1[i] {
				add(jt.Level+q-1, p*jt.W)
			}
		}
		piQ = s.R.VecMul(piQ)
		if q++; q > 1<<20 {
			return nil, fmt.Errorf("qbd: join-distribution block walk did not converge (residual %.3g after %d blocks)", mat.VecSum(piQ), q)
		}
	}
	// Exact geometric residual Σ_{j≥q} π_1·R^{j−1}, folded at shift q−1 so
	// the distribution stays normalized.
	rest := s.geo.Solve(piQ)
	for i, p := range rest {
		for _, jt := range terms1[i] {
			add(jt.Level+q-1, p*jt.W)
		}
	}

	// The weights of each state sum to 1 (the tie groups partition the
	// sampling space) and the stationary masses sum to 1, so Σw = 1 up to
	// solver precision; renormalize to keep quantile bisection exact.
	total := mat.VecSum(w)
	if total <= 0 {
		return nil, fmt.Errorf("qbd: join distribution collapsed (total mass %v)", total)
	}
	return mat.VecScale(w, 1/total), nil
}

// joinTerms lists the arrival outcomes of state m under the bound model's
// redirect semantics: for each tie group g with positive polling rate, the
// probability r_g/λN of joining and the queue length the job finds ahead.
func joinTerms(p sqd.BoundParams, lower bool, m statespace.State) []joinTerm {
	groups := m.Groups()
	minG := groups[len(groups)-1]
	lamN := p.TotalArrivalRate()
	ts := make([]joinTerm, 0, len(groups))
	for _, g := range groups {
		r := sqd.ArrivalRate(p.Params, g)
		if r <= 0 {
			continue
		}
		level := g.Level
		if lower && !p.InSpace(m.AfterArrival(g)) {
			level = minG.Level // jockeyed down to a shortest queue
		}
		ts = append(ts, joinTerm{Level: level, W: r / lamN})
	}
	return ts
}
