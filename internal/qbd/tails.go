package qbd

import (
	"fmt"

	"finitelb/internal/mat"
	"finitelb/internal/statespace"
)

// ServerTail returns the stationary probability that a uniformly chosen
// server of the bound model holds at least k jobs — the finite-regime
// counterpart of Mitzenmacher's asymptotic fixed point s_k, here for the
// modified (bound) chains.
//
// Blocks are resolved exactly: a state of block q ≥ 1 is its B1
// representative shifted up by q−1 levels, so its per-server occupancy
// fraction at threshold k equals the representative's at threshold
// k−(q−1); once q ≥ k every server in the block sits at or above k (all
// non-boundary servers are busy), so the remaining geometric mass
// contributes wholesale.
func (s *Solution) ServerTail(k int) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("qbd: negative occupancy threshold %d", k)
	}
	if k == 0 {
		return 1, nil
	}
	b := s.Blocks
	tail := 0.0
	for i, p := range s.PiBoundary {
		tail += p * fracAtLeast(b.Boundary.At(i), k)
	}
	for i, p := range s.Pi0 {
		tail += p * fracAtLeast(b.B0[i], k)
	}

	// Blocks q = 1 .. k−1 explicitly (π_q = π_1·R^{q−1}); from q = k on,
	// every server counts, so the residual mass contributes in full.
	piQ := s.Pi1
	for q := 1; q < k; q++ {
		for i, p := range piQ {
			tail += p * fracAtLeast(b.B1[i], k-(q-1))
		}
		piQ = s.R.VecMul(piQ)
	}
	tail += mat.VecSum(s.geo.Solve(piQ))
	if tail > 1 {
		tail = 1
	}
	return tail, nil
}

// fracAtLeast returns the fraction of servers in st holding at least k jobs.
func fracAtLeast(st statespace.State, k int) float64 {
	c := 0
	for _, v := range st {
		if v >= k {
			c++
		}
	}
	return float64(c) / float64(len(st))
}
