package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Poisson is the default arrival process: i.i.d. exponential interarrivals,
// the paper's assumption and the only one the QBD bounds cover.
type Poisson struct{}

// NewSource implements Arrival.
func (Poisson) NewSource(rate float64) (Source, error) {
	if err := checkRate(rate); err != nil {
		return nil, err
	}
	return poissonSource{rate: rate}, nil
}

func (Poisson) String() string { return "poisson" }

type poissonSource struct{ rate float64 }

func (s poissonSource) Next(rng *rand.Rand) float64 { return rng.ExpFloat64() / s.rate }

// DeterministicArrivals is the smoothest renewal process: fixed
// interarrivals 1/rate (SCV 0). With exponential service at a single
// server this is D/M/1, whose mean sojourn 1/(μ(1−σ)) follows from the
// σ-root of Theorem 2 (embedded.Sigma) and anchors the oracle tests.
type DeterministicArrivals struct{}

// NewSource implements Arrival.
func (DeterministicArrivals) NewSource(rate float64) (Source, error) {
	if err := checkRate(rate); err != nil {
		return nil, err
	}
	return constSource{gap: 1 / rate}, nil
}

func (DeterministicArrivals) String() string { return "deterministic" }

type constSource struct{ gap float64 }

func (s constSource) Next(*rand.Rand) float64 { return s.gap }

// ErlangArrivals has Erlang-K interarrivals (SCV 1/K): smoother than
// Poisson, interpolating toward deterministic as K grows.
type ErlangArrivals struct {
	K int // number of phases, 1 ≤ K ≤ MaxPhases (K = 1 is Poisson)
}

// MaxPhases caps phase counts accepted by Erlang arrival and service laws;
// beyond it the per-draw cost is pathological and the laws are
// indistinguishable from deterministic anyway.
const MaxPhases = 1000

// NewSource implements Arrival.
func (a ErlangArrivals) NewSource(rate float64) (Source, error) {
	if err := checkRate(rate); err != nil {
		return nil, err
	}
	if a.K < 1 || a.K > MaxPhases {
		return nil, fmt.Errorf("workload: erlang arrivals need 1 ≤ K ≤ %d, got %d", MaxPhases, a.K)
	}
	return erlangSource{k: a.K, phaseRate: float64(a.K) * rate}, nil
}

func (a ErlangArrivals) String() string { return fmt.Sprintf("erlang:%d", a.K) }

type erlangSource struct {
	k         int
	phaseRate float64
}

func (s erlangSource) Next(rng *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < s.k; i++ {
		sum += rng.ExpFloat64()
	}
	return sum / s.phaseRate
}

// HyperExp is a bursty renewal process: two-phase hyperexponential
// interarrivals with balanced means and squared coefficient of variation
// CV2 ≥ 1 (CV2 = 1 degenerates to Poisson). It stands in for the
// MAP/phase-type traffic the paper names as future work; its GI/M/1 mean
// sojourn is exactly solvable via embedded.Sigma, which the oracle tests
// exploit.
type HyperExp struct {
	CV2 float64 // squared coefficient of variation of interarrivals, ≥ 1
}

// MaxCV2 caps the burstiness accepted by HyperExp; beyond it the branch
// probability underflows and simulations stop mixing in any feasible run.
const MaxCV2 = 1e6

// Phases returns the balanced-means parametrisation at aggregate rate:
// an interarrival is Exp(l1) with probability p, else Exp(l2). The same
// triple is the two branches of embedded.LawOf, behind the GI lower bound
// and the GI/M/1 oracle.
func (a HyperExp) Phases(rate float64) (p, l1, l2 float64) {
	p = float64((1 + math.Sqrt((a.CV2-1)/(a.CV2+1))) / 2) // rounded: no FMA off amd64
	return p, 2 * p * rate, 2 * (1 - p) * rate
}

// NewSource implements Arrival.
func (a HyperExp) NewSource(rate float64) (Source, error) {
	if err := checkRate(rate); err != nil {
		return nil, err
	}
	if !(a.CV2 >= 1 && a.CV2 <= MaxCV2) {
		return nil, fmt.Errorf("workload: hyperexp arrivals need 1 ≤ CV2 ≤ %g, got %v", MaxCV2, a.CV2)
	}
	p, l1, l2 := a.Phases(rate)
	return hyperExpSource{p: p, l1: l1, l2: l2}, nil
}

func (a HyperExp) String() string { return fmt.Sprintf("hyperexp:cv2=%g", a.CV2) }

type hyperExpSource struct{ p, l1, l2 float64 }

func (s hyperExpSource) Next(rng *rand.Rand) float64 {
	if rng.Float64() < s.p {
		return rng.ExpFloat64() / s.l1
	}
	return rng.ExpFloat64() / s.l2
}

func checkRate(rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("workload: arrival rate %v outside (0, ∞)", rate)
	}
	return nil
}
