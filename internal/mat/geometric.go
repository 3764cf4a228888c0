package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConverge is returned when an iterative method fails to converge
// within its iteration budget.
var ErrNoConverge = errors.New("mat: iteration did not converge")

// SpectralRadius estimates the spectral radius of a nonnegative square
// matrix by power iteration on a strictly positive start vector. It is used
// to verify that rate matrices R satisfy sp(R) < 1 before forming geometric
// sums. For matrices with sp(R)=0 (nilpotent) the iteration converges to 0.
func SpectralRadius(a *Dense, tol float64, maxIter int) (float64, error) {
	if a.rows != a.cols {
		panic("mat: SpectralRadius requires a square matrix")
	}
	n := a.rows
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	prev := math.Inf(1)
	for it := 0; it < maxIter; it++ {
		y := a.MulVec(x)
		var norm float64
		for _, v := range y {
			if av := math.Abs(v); av > norm {
				norm = av
			}
		}
		if norm == 0 {
			return 0, nil
		}
		for i := range y {
			y[i] /= norm
		}
		x = y
		if math.Abs(norm-prev) <= tol*(1+norm) {
			return norm, nil
		}
		prev = norm
	}
	return prev, fmt.Errorf("spectral radius estimate %.6g after %d iterations: %w", prev, maxIter, ErrNoConverge)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: dimension mismatch in Dot")
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// VecSum returns the sum of the entries of x.
func VecSum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// VecScale multiplies x by s in place and returns x.
func VecScale(x []float64, s float64) []float64 {
	for i := range x {
		x[i] *= s
	}
	return x
}
