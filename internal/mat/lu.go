package mat

import "math"

// LU holds an LU factorization with partial pivoting of a square matrix:
// P·A = L·U, stored compactly in lu with the permutation in piv.
type LU struct {
	lu  *Dense
	piv []int
}

// Factorize computes the LU factorization of a, leaving a unchanged. It
// returns ErrSingular if a pivot is exactly zero or smaller in magnitude
// than a conservative threshold scaled by the matrix norm.
func Factorize(a *Dense) (*LU, error) {
	return FactorizeInPlace(a.Clone())
}

// FactorizeInPlace is Factorize without the copy: the factors overwrite a,
// which the caller must not use afterwards. It suits a large matrix built
// only to be solved, such as the 16 MB boundary system of a block-330 QBD.
func FactorizeInPlace(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		panic("mat: Factorize requires a square matrix")
	}
	n := a.rows
	f := &LU{lu: a, piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	tiny := 1e-300 // absolute floor; relative conditioning is the caller's concern
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest |entry| in column k at or below row k.
		p, pmax := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax < tiny {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			axpy(-m, lu.Row(k)[k+1:], lu.Row(i)[k+1:])
		}
	}
	return f, nil
}

// Solve solves A·x = b for x, overwriting nothing; b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic("mat: dimension mismatch in LU.Solve")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= float64(ri[j] * x[j])
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= float64(ri[j] * x[j])
		}
		x[i] = s / ri[i]
	}
	return x
}

// SolveMat solves A·X = B and returns X. It substitutes whole rows of X:
// copy the permuted rows of B, then x_i −= l_ij·x_j for j < i, then
// x_i −= u_ij·x_j for j > i and x_i /= u_ii, skipping zero multipliers.
// Every element of X thus sees the operations of Solve on its column, in
// the same order; a skipped term 0·x_j changes no bits unless the running
// value is −0, which cannot happen when B holds no −0. So X equals the
// column-by-column solve bit for bit, while the inner loops run along
// contiguous rows, and a B narrowed to its nonzero columns (Select) yields
// exactly those columns of the full solve.
func (f *LU) SolveMat(b *Dense) *Dense {
	n := f.lu.rows
	if b.rows != n {
		panic("mat: dimension mismatch in LU.SolveMat")
	}
	x := NewDense(n, b.cols)
	for i := 0; i < n; i++ {
		copy(x.Row(i), b.Row(f.piv[i]))
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		xi := x.Row(i)
		for j, l := range f.lu.Row(i)[:i] {
			if l == 0 {
				continue
			}
			axpy(-l, x.Row(j), xi)
		}
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri, xi := f.lu.Row(i), x.Row(i)
		for j := i + 1; j < n; j++ {
			u := ri[j]
			if u == 0 {
				continue
			}
			axpy(-u, x.Row(j), xi)
		}
		for c := range xi {
			xi[c] /= ri[i]
		}
	}
	return x
}

// Inverse returns A⁻¹ or ErrSingular.
func Inverse(a *Dense) (*Dense, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMat(Identity(a.rows)), nil
}

// Solve solves A·x = b.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// SolveLeft solves x·A = b for the row vector x (equivalently Aᵀ·xᵀ = bᵀ).
func SolveLeft(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorizeInPlace(a.T())
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
