package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Exponential is the default unit-mean service law — the only one the QBD
// bounds cover. Sample is exactly one ExpFloat64 draw, which the
// simulator's concrete exponential sampler re-derives draw for draw.
type Exponential struct{}

// Sample implements Service.
func (Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() }

// Moment2 implements Service.
func (Exponential) Moment2() float64 { return 2 }

// Validate implements Service.
func (Exponential) Validate() error { return nil }

func (Exponential) String() string { return "exponential" }

// DeterministicService is the zero-variance law: every job needs exactly
// one unit of work. M/D/1 mean sojourn 1 + ρ/(2(1−ρ)) is the
// Pollaczek–Khinchine oracle.
type DeterministicService struct{}

// Sample implements Service.
func (DeterministicService) Sample(*rand.Rand) float64 { return 1 }

// Moment2 implements Service.
func (DeterministicService) Moment2() float64 { return 1 }

// Validate implements Service.
func (DeterministicService) Validate() error { return nil }

func (DeterministicService) String() string { return "deterministic" }

// ErlangService is the unit-mean Erlang-K (phase-type) law, SCV 1/K —
// between exponential (K = 1) and deterministic (K → ∞). Construct via
// NewErlangService or ParseService, or set K directly; Validate rejects
// out-of-range phase counts.
type ErlangService struct {
	K int // number of phases, 1 ≤ K ≤ MaxPhases
}

// NewErlangService validates and builds the Erlang-K service law.
func NewErlangService(k int) (ErlangService, error) {
	if k < 1 || k > MaxPhases {
		return ErlangService{}, fmt.Errorf("workload: erlang service needs 1 ≤ K ≤ %d, got %d", MaxPhases, k)
	}
	return ErlangService{K: k}, nil
}

// Sample implements Service.
func (s ErlangService) Sample(rng *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < s.K; i++ {
		sum += rng.ExpFloat64()
	}
	return sum / float64(s.K)
}

// Moment2 implements Service.
func (s ErlangService) Moment2() float64 { return 1 + 1/float64(s.K) }

// Validate implements Service.
func (s ErlangService) Validate() error {
	_, err := NewErlangService(s.K)
	return err
}

func (s ErlangService) String() string { return fmt.Sprintf("erlang:%d", s.K) }

// BoundedPareto is a heavy-tailed unit-mean law on [l, h]: the classic
// model of file-size and flow-size distributions. Alpha is the tail index
// (heavier for smaller alpha), h the truncation cap in units of the mean;
// l is solved numerically so the mean is exactly 1. Construct via
// NewBoundedPareto, which precomputes the inverse-CDF constants.
type BoundedPareto struct {
	Alpha float64 // tail index
	H     float64 // upper cutoff, in service-time units

	l       float64 // lower cutoff solving E[S] = 1
	ratioA  float64 // 1 − (l/h)^α, the CDF normaliser
	moment2 float64
}

// NewBoundedPareto validates (alpha, h) and solves the lower cutoff for a
// unit mean. It requires h > 1 (the mean must be interior) and
// 0 < alpha ≤ 64.
func NewBoundedPareto(alpha, h float64) (BoundedPareto, error) {
	if !(alpha > 0 && alpha <= 64) {
		return BoundedPareto{}, fmt.Errorf("workload: pareto tail index alpha = %v outside (0, 64]", alpha)
	}
	if !(h > 1 && h <= 1e12) {
		return BoundedPareto{}, fmt.Errorf("workload: pareto cap h = %v outside (1, 1e12]", h)
	}
	// The mean is continuous and strictly increasing in l (larger l
	// stochastically dominates), from 0 as l → 0 to > 1 at l = 1; bisect.
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if bpMoment(alpha, mid, h, 1) < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	p := BoundedPareto{Alpha: alpha, H: h, l: (lo + hi) / 2}
	p.ratioA = 1 - math.Pow(p.l/h, alpha)
	p.moment2 = bpMoment(alpha, p.l, h, 2)
	return p, nil
}

// bpMoment returns E[X^k] of a Pareto(alpha) law truncated to [l, h].
func bpMoment(alpha, l, h float64, k int) float64 {
	kk := float64(k)
	norm := math.Pow(l, alpha) / (1 - math.Pow(l/h, alpha))
	if alpha == kk {
		return alpha * norm * math.Log(h/l) / math.Pow(l, alpha-kk)
	}
	return alpha * norm * (math.Pow(l, kk-alpha) - math.Pow(h, kk-alpha)) / (alpha - kk)
}

// Sample implements Service via the inverse CDF: one uniform draw.
func (p BoundedPareto) Sample(rng *rand.Rand) float64 {
	return p.Quantile(rng.Float64())
}

// Quantile is the law's inverse CDF on [0, 1). It is exported so hosts
// that draw their own uniforms (the simulator's devirtualized event loop)
// sample through byte-for-byte the same arithmetic as Sample; the two
// share this implementation and cannot drift.
func (p BoundedPareto) Quantile(u float64) float64 {
	return p.l / math.Pow(1-float64(u*p.ratioA), 1/p.Alpha) // rounded: no FMA off amd64
}

// Moment2 implements Service.
func (p BoundedPareto) Moment2() float64 { return p.moment2 }

// Validate implements Service. A BoundedPareto must come from
// NewBoundedPareto (a bare literal has no inverse-CDF constants).
func (p BoundedPareto) Validate() error {
	if !(p.l > 0 && p.ratioA > 0) {
		return fmt.Errorf("workload: BoundedPareto must be built with NewBoundedPareto")
	}
	return nil
}

func (p BoundedPareto) String() string {
	return fmt.Sprintf("pareto:alpha=%g,h=%g", p.Alpha, p.H)
}
