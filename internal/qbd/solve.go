package qbd

import (
	"fmt"
	"math"

	"finitelb/internal/mat"
	"finitelb/internal/sqd"
)

// Solution is the stationary solution of a bound model.
type Solution struct {
	Blocks *Blocks
	model  BoundModel // the solved model; drives JoinDistribution's redirects

	PiBoundary []float64 // stationary mass of the boundary states
	Pi0, Pi1   []float64 // stationary mass of blocks B0 and B1
	// R is the rate matrix of Theorem 1, π_{q+1} = π_q·R: the solved one,
	// or ρᴺ·I on Theorem 3's path.
	R *mat.Dense
	// geo is (I−R)ᵀ factorized once by Solve, so that geo.Solve(x) is
	// x·(I−R)⁻¹ = Σ_{k≥0} x·Rᵏ. Every geometric series of the solution
	// reads it.
	geo *mat.LU

	LRIterations int     // logarithmic-reduction iterations used (0 for Theorem 3)
	DriftUp      float64 // πA0e
	DriftDown    float64 // πA2e

	MeanJobs    float64 // E[#m], including any phantom upper-bound work
	MeanWaiting float64 // E[Σ max(m_i−1, 0)]
	MeanWait    float64 // E[waiting time] = MeanWaiting/(λN)
	MeanDelay   float64 // E[sojourn time] = MeanWait + 1
}

// lrTol is the logarithmic-reduction convergence tolerance on the
// row-stochasticity of G.
const lrTol = 1e-12

// Options tunes the matrix-geometric solve.
type Options struct {
	// ImprovedLB replaces the rate matrix by ρᴺ·I (Theorem 3). Only valid
	// for the lower-bound model; Solve rejects it otherwise.
	ImprovedLB bool
}

// Solve computes the stationary distribution and delay metrics of a bound
// model via Theorem 1 (or Theorem 3 when opts.ImprovedLB is set).
func Solve(model BoundModel, opts Options) (*Solution, error) {
	if opts.ImprovedLB {
		if _, ok := model.(*sqd.LowerBound); !ok {
			return nil, fmt.Errorf("qbd: ImprovedLB (Theorem 3) applies only to the lower-bound model, got %T", model)
		}
	}
	b, err := NewBlocks(model)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Blocks: b, model: model}

	sol.DriftUp, sol.DriftDown, err = Drift(b.A0, b.A1, b.A2)
	if err != nil {
		return nil, err
	}
	if sol.DriftUp >= sol.DriftDown {
		return nil, fmt.Errorf("%w: πA0e = %.6g ≥ πA2e = %.6g (N=%d d=%d ρ=%v T=%d)",
			ErrUnstable, sol.DriftUp, sol.DriftDown, b.P.N, b.P.D, b.P.Rho, b.P.T)
	}

	if opts.ImprovedLB {
		// A diagonal R: the products and the factorization below skip its
		// zero entries, so it costs O(m²) next to the boundary solve.
		sol.R = mat.Identity(b.BlockSize()).Scale(math.Pow(b.P.Rho, float64(b.P.N)))
	} else {
		g, iters, err := LogReduction(b.A0, b.A1, b.A2, lrTol)
		if err != nil {
			return nil, err
		}
		sol.LRIterations = iters
		if sol.R, err = RateMatrix(b.A0, b.A1, b.A2, g); err != nil {
			return nil, err
		}
	}
	if sol.geo, err = mat.FactorizeInPlace(mat.Identity(b.BlockSize()).Sub(sol.R).T()); err != nil {
		return nil, fmt.Errorf("qbd: (I−R) singular — spectral radius ≥ 1: %w", err)
	}

	if err := sol.solveBoundary(); err != nil {
		return nil, err
	}
	b.R00, b.R01, b.R10 = nil, nil, nil // see Blocks
	sol.metrics()
	return sol, nil
}

// solveBoundary assembles and solves the finite system of Eq. (13): the
// unknown row vector x = (π_bnd, π0, π1) against the block matrix
//
//	⎡ R00  R01   0        ⎤
//	⎢ R10  A1    A0       ⎥
//	⎣ 0    A2    A1+R·A2  ⎦
//
// whose balance equations have rank deficiency 1. One equation is
// replaced by x·e = 1, which fixes the scale; x is then rescaled by the
// matrix-geometric mass π_bnd·e + π0·e + π1·(I−R)⁻¹·e, so that the levels
// q ≥ 1 beyond B1 are counted too.
func (s *Solution) solveBoundary() error {
	b := s.Blocks
	nb := b.Boundary.Len()
	m := b.BlockSize()
	size := nb + 2*m

	// x solves x·sys = e₀, that is sysᵀ·xᵀ = e₀ᵀ, so sysᵀ is what gets
	// factorized; it is assembled transposed to begin with.
	sysT := mat.NewDense(size, size)
	// put writes src as the block of sys at row ro, column co. Zeros are
	// skipped: sysT starts at +0, and the blocks hold no −0.
	put := func(src *mat.Dense, ro, co int) {
		for i := 0; i < src.Rows(); i++ {
			for j, v := range src.Row(i) {
				if v != 0 {
					sysT.Set(co+j, ro+i, v)
				}
			}
		}
	}
	put(b.R00, 0, 0)
	put(b.R01, 0, nb)
	put(b.R10, nb, 0)
	put(b.A1, nb, nb)
	put(b.A0, nb, nb+m)
	put(b.A2, nb+m, nb)
	put(b.A1.Add(s.R.Mul(b.A2)), nb+m, nb+m)

	// Replace the first balance equation (column 0) by x·e = 1.
	norm := sysT.Row(0)
	for i := range norm {
		norm[i] = 1
	}
	rhs := make([]float64, size)
	rhs[0] = 1
	f, err := mat.FactorizeInPlace(sysT)
	if err != nil {
		return fmt.Errorf("qbd: boundary system solve: %w", err)
	}
	x := f.Solve(rhs)
	s.PiBoundary = x[:nb]
	s.Pi0 = x[nb : nb+m]
	s.Pi1 = x[nb+m:]
	mat.VecScale(x, 1/s.TotalMass())
	for _, v := range x {
		if v < -1e-9 {
			return fmt.Errorf("qbd: boundary solve produced negative probability %.3g", v)
		}
	}
	return nil
}

// metrics computes the delay metrics from the stationary solution using
// geometric level sums: in non-boundary blocks every server is busy, so a
// state of block q ≥ 1 holds exactly (q−1)·N more jobs (and waiting jobs)
// than its pattern-aligned representative in B1.
func (s *Solution) metrics() {
	b := s.Blocks
	n := float64(b.P.N)

	for i, p := range s.PiBoundary {
		st := b.Boundary.At(i)
		s.MeanJobs += p * float64(st.Total())
		s.MeanWaiting += p * float64(st.WaitingJobs())
	}
	for i, p := range s.Pi0 {
		st := b.B0[i]
		s.MeanJobs += p * float64(st.Total())
		s.MeanWaiting += p * float64(st.WaitingJobs())
	}

	jobs1 := make([]float64, len(s.Pi1))
	wait1 := make([]float64, len(s.Pi1))
	for i, st := range b.B1 {
		jobs1[i] = float64(st.Total())
		wait1[i] = float64(st.WaitingJobs())
	}
	// Σ_{q≥1} π1·R^{q−1}·v = π1·(I−R)⁻¹·v, and the level shift
	// Σ_{q≥1} (q−1)·π1·R^{q−1}·(N·e) = N·π1·R·(I−R)⁻²·e.
	sum1 := s.geo.Solve(s.Pi1)
	shift := n * mat.VecSum(s.geo.Solve(s.geo.Solve(s.R.VecMul(s.Pi1))))
	s.MeanJobs += mat.Dot(sum1, jobs1) + shift
	s.MeanWaiting += mat.Dot(sum1, wait1) + shift

	lamN := b.P.TotalArrivalRate()
	s.MeanWait = s.MeanWaiting / lamN
	s.MeanDelay = s.MeanWait + 1
}

// TotalMass returns the total stationary probability implied by the
// solution, π_bnd·e + π0·e + π1·(I−R)⁻¹·e (1 up to rounding); exposed for
// validation.
func (s *Solution) TotalMass() float64 {
	return mat.VecSum(s.PiBoundary) + mat.VecSum(s.Pi0) + mat.VecSum(s.geo.Solve(s.Pi1))
}

// LevelMass returns π_q·e for q ≥ 1 using the geometric recursion; exposed
// for the Theorem 3 ρᴺ-decay validation.
func (s *Solution) LevelMass(q int) float64 {
	if q < 1 {
		panic("qbd: LevelMass requires q ≥ 1")
	}
	v := s.Pi1
	for i := 1; i < q; i++ {
		v = s.R.VecMul(v)
	}
	return mat.VecSum(v)
}
