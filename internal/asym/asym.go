// Package asym implements the asymptotic (N → ∞) delay theory the paper
// evaluates against — Mitzenmacher's fixed-point formula, Eq. (16) — and
// the solver for Theorem 2's embedded-chain σ-equation x = Σ xᵏβ_k, whose
// Poisson special case σ = ρ (Theorem 3) underlies the improved lower
// bound. The β of phase-type arrival laws come from package embedded
// (Law.Betas), which maps workload arrival specs onto them; only the
// deterministic law's β, which has no phase-type form, lives here.
package asym

import (
	"errors"
	"fmt"
	"math"
)

// Delay returns the asymptotic mean sojourn time of SQ(d) at per-server
// utilization ρ (Eq. (16)):
//
//	E[Delay] = Σ_{i≥1} ρ^{(dⁱ − d)/(d − 1)},
//
// which is independent of N. For d = 1 the exponent degenerates to i − 1
// and the series sums to the M/M/1 delay 1/(1 − ρ).
func Delay(d int, rho float64) float64 {
	if d < 1 {
		panic(fmt.Sprintf("asym: invalid d = %d", d))
	}
	if rho <= 0 || rho >= 1 {
		panic(fmt.Sprintf("asym: utilization %v outside (0,1)", rho))
	}
	if d == 1 {
		return 1 / (1 - rho)
	}
	sum := 0.0
	// Term i has exponent (dⁱ − d)/(d−1) = d + d² + … + d^{i−1}; grow it
	// incrementally to avoid overflow, stopping once terms vanish.
	exponent := 0.0
	power := float64(d)
	for i := 1; i <= 64; i++ {
		term := math.Pow(rho, exponent)
		sum += term
		if term < 1e-16 {
			break
		}
		exponent += power
		power *= float64(d)
	}
	return sum
}

// ErrNoRoot is returned when the σ-equation has no root inside (0, 1),
// which happens exactly when the embedded system is not stable.
var ErrNoRoot = errors.New("asym: σ-equation has no root in (0, 1)")

// BetaFunc returns β_k = ∫ (μt)^k/k!·e^{−μt} dA(t) for k ≥ 0: the
// probability that exactly k services complete at a busy exponential(μ)
// server during one interarrival time drawn from A.
type BetaFunc func(k int) float64

// DeterministicBetas returns β_k for deterministic interarrival times 1/λ:
// the completion count is Poisson(μ/λ), so β_k = e^{−μ/λ}(μ/λ)ᵏ/k!.
func DeterministicBetas(lambda, mu float64) BetaFunc {
	a := mu / lambda
	return func(k int) float64 {
		logTerm := -a + float64(k)*math.Log(a) - lgammaInt(k)
		return math.Exp(logTerm)
	}
}

// SolveSigma finds the unique root σ ∈ (0, 1) of Theorem 2's equation
//
//	x = Σ_{k≥0} xᵏ·β_k
//
// by bisection on f(x) = Σ xᵏβ_k − x, which is positive at 0⁺ (β_0 > 0)
// and negative at 1⁻ exactly when the mean number of completions per
// interarrival exceeds 1 (stability). The series is truncated once terms
// fall below machine precision.
func SolveSigma(betas BetaFunc, tol float64) (float64, error) {
	if tol <= 0 {
		tol = 1e-13
	}
	f := func(x float64) float64 {
		sum := 0.0
		xk := 1.0
		for k := 0; k < 100000; k++ {
			term := xk * betas(k)
			sum += term
			if k > 4 && term < 1e-18 {
				break
			}
			xk *= x
		}
		return sum - x
	}
	lo, hi := 1e-12, 1-1e-9
	flo, fhi := f(lo), f(hi)
	if flo <= 0 || fhi >= 0 {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoRoot, lo, flo, hi, fhi)
	}
	for i := 0; i < 200 && hi-lo > tol; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// lgammaInt returns ln(n!) for n ≥ 0 via math.Lgamma.
func lgammaInt(n int) float64 {
	v, _ := math.Lgamma(float64(n) + 1)
	return v
}
