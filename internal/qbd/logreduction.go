package qbd

import (
	"fmt"
	"math"

	"finitelb/internal/mat"
)

// LogReduction computes the matrix G of a positive-recurrent CTMC QBD with
// blocks A0 (up), A1 (local, including diagonals), A2 (down) using the
// logarithmic reduction algorithm of Latouche & Ramaswami [10], in the form
// quoted in Section IV-A:
//
//	B1,1 = (−A1)⁻¹A0,   B2,1 = (−A1)⁻¹A2,
//	B1,i = (I − B1,p·B2,p − B2,p·B1,p)⁻¹·B1,p²   (p = i−1),
//	B2,i = (I − B1,p·B2,p − B2,p·B1,p)⁻¹·B2,p²,
//	G    = Σ_{k≥1} (Π_{i<k} B1,i)·B2,k.
//
// G's entry (i, j) is the probability that, starting from state i of block
// B_{q+1}, the chain first enters block B_q through state j; for a
// recurrent QBD G is row-stochastic, which is the convergence criterion.
// It returns G and the number of iterations performed (the paper reports
// k ≤ 6 for its configurations; quadratic convergence makes large counts
// pathological, so the budget is a fixed small constant).
//
// The iteration works on the zero-column structure of the blocks. A column
// that is zero in A0 is zero in B1,1, and left multiplication and the
// solve against the denominator mix rows only, so it stays zero in every
// B1,i and in the prefix product; likewise the zero columns of A2 in every
// B2,i and in G. At block 330 (N=8, d=2, T=4) A0 has nonzeros in
// 57 columns and A2 in 43. The B's and the prefix are therefore kept as
// those columns only, and each product takes the left operand's columns
// with the matching rows of the right (mat.Select). The terms left out are
// exactly the zero ones MulTo skips, and the order of the rest is
// unchanged (see MulTo and LU.SolveMat), so G is bit-identical to the
// dense iteration.
func LogReduction(a0, a1, a2 *mat.Dense, tol float64) (*mat.Dense, int, error) {
	m := a0.Rows()
	negA1inv, err := mat.Inverse(a1.Scale(-1))
	if err != nil {
		return nil, 0, fmt.Errorf("qbd: A1 is singular: %w", err)
	}
	up, down := structCols(a0), structCols(a2)
	b1 := negA1inv.Mul(a0.Select(nil, up))   // B1 on the columns up
	b2 := negA1inv.Mul(a2.Select(nil, down)) // B2 on the columns down

	g := b2.Clone()      // Σ so far
	prefix := b1.Clone() // Π_{i<k} B1,i
	// Reuse the product workspaces and the denominator across iterations
	// (Factorize clones its input, so den is reusable).
	wsUp, wsDown := mat.NewDense(m, len(up)), mat.NewDense(m, len(down))
	newPrefix := mat.NewDense(m, len(up))
	den := mat.NewDense(m, m)
	const maxIter = 64 // quadratic convergence: 64 doublings is beyond any sane model
	for k := 1; k <= maxIter; k++ {
		// Convergence: G row sums reach 1.
		worst := 0.0
		for _, s := range g.RowSums() {
			if d := math.Abs(1 - s); d > worst {
				worst = d
			}
		}
		if worst < tol {
			return scatterCols(g, m, down), k, nil
		}
		// den = I − B1·B2 − B2·B1
		den.SetIdentity()
		den.AddScaledCols(b1.MulTo(wsDown, b2.Select(up, nil)), -1, down)
		den.AddScaledCols(b2.MulTo(wsUp, b1.Select(down, nil)), -1, up)
		f, err := mat.Factorize(den)
		if err != nil {
			return nil, k, fmt.Errorf("qbd: logarithmic reduction step %d singular: %w", k, err)
		}
		b1n := f.SolveMat(b1.MulTo(wsUp, b1.Select(up, nil)))
		b2n := f.SolveMat(b2.MulTo(wsDown, b2.Select(down, nil)))
		g.AddScaled(prefix.MulTo(wsDown, b2n.Select(up, nil)), 1)
		prefix.MulTo(newPrefix, b1n.Select(up, nil))
		prefix, newPrefix = newPrefix, prefix
		b1, b2 = b1n, b2n
	}
	return nil, maxIter, fmt.Errorf("qbd: logarithmic reduction: %w", mat.ErrNoConverge)
}

// structCols lists the nonzero columns of a, or column 0 when a is zero:
// carrying a zero column is exact, and keeps every workspace at least one
// column wide.
func structCols(a *mat.Dense) []int {
	if cols := a.NonzeroCols(); len(cols) > 0 {
		return cols
	}
	return []int{0}
}

// scatterCols returns the m×m matrix whose columns cols hold the columns
// of c, and whose other entries are +0.
func scatterCols(c *mat.Dense, m int, cols []int) *mat.Dense {
	full := mat.NewDense(m, m)
	full.AddScaledCols(c, 1, cols)
	return full
}

// RateMatrix computes R = −A0(A1 + A0·G)⁻¹ (Latouche & Ramaswami [9]),
// the expected-visits matrix of Theorem 1, and verifies the defining
// quadratic residual A0 + R·A1 + R²·A2 = 0.
func RateMatrix(a0, a1, a2, g *mat.Dense) (*mat.Dense, error) {
	inner, err := mat.Inverse(a1.Add(a0.Mul(g)))
	if err != nil {
		return nil, fmt.Errorf("qbd: A1 + A0·G is singular: %w", err)
	}
	r := a0.Mul(inner).Scale(-1)
	res := a0.Add(r.Mul(a1)).Add(r.Mul(r).Mul(a2))
	if worst := res.MaxAbs(); worst > 1e-8*(1+a0.MaxAbs()+a1.MaxAbs()+a2.MaxAbs()) {
		return nil, fmt.Errorf("qbd: rate matrix residual %.3g too large", worst)
	}
	return r, nil
}

// Drift evaluates the stability condition of Theorem 1.7.1 of Neuts: with
// π the stationary vector of the aggregate generator A = A0 + A1 + A2, the
// QBD is positive recurrent iff up-drift πA0e < down-drift πA2e. It
// returns both drifts.
func Drift(a0, a1, a2 *mat.Dense) (up, down float64, err error) {
	m := a0.Rows()
	a := a0.Add(a1).Add(a2)
	// Solve πA = 0, πe = 1 by replacing the last balance equation with the
	// normalization (the balance equations have rank m−1).
	sys := a.Clone()
	for i := 0; i < m; i++ {
		sys.Set(i, m-1, 1)
	}
	rhs := make([]float64, m)
	rhs[m-1] = 1
	pi, err := mat.SolveLeft(sys, rhs)
	if err != nil {
		return 0, 0, fmt.Errorf("qbd: aggregate generator solve: %w", err)
	}
	up = mat.VecSum(a0.VecMul(pi))
	down = mat.VecSum(a2.VecMul(pi))
	return up, down, nil
}
