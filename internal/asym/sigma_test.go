package asym_test

// The σ-root over workload arrival laws: SolveSigma on the β of
// embedded.Law.Betas, the one phase-type mapping of a workload spec,
// checked against Theorem 3's closed form and the GI/M/1 ordering.

import (
	"math"
	"testing"

	"finitelb/internal/asym"
	"finitelb/internal/embedded"
	"finitelb/internal/workload"
)

func betas(t *testing.T, a workload.Arrival, lambda float64) asym.BetaFunc {
	t.Helper()
	law, err := embedded.LawOf(a, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return law.Betas(1)
}

func sigma(t *testing.T, a workload.Arrival, rho float64) float64 {
	t.Helper()
	s, err := embedded.Sigma(a, rho)
	if err != nil {
		t.Fatalf("%v at ρ=%v: %v", a, rho, err)
	}
	return s
}

// TestPoissonBetasSumToOne: the one-stage (Poisson) law's β is a
// probability distribution over the arrivals seen per service.
func TestPoissonBetasSumToOne(t *testing.T) {
	b := betas(t, workload.Poisson{}, 0.7)
	sum := 0.0
	for k := 0; k < 2000; k++ {
		sum += b(k)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Σβ_k = %v, want 1", sum)
	}
}

// TestPoissonBetasClosedForm: the one-stage (Poisson) law's β is the
// closed form of the Theorem 3 proof, β_k = λ/(λ+μ)·(μ/(λ+μ))ᵏ — β_0 =
// λ/(λ+μ) and the recursion β_{k+1} = β_k·μ/(λ+μ) of Eq. (21).
func TestPoissonBetasClosedForm(t *testing.T) {
	const lambda, mu = 0.8, 1.0
	b := betas(t, workload.Poisson{}, lambda)
	for k := 0; k < 2000; k++ {
		want := lambda / (lambda + mu) * math.Pow(mu/(lambda+mu), float64(k))
		if got := b(k); math.Abs(got-want) > 1e-15 {
			t.Errorf("β_%d = %v, want %v", k, got, want)
		}
	}
}

func TestBetasSumToOneAcrossLaws(t *testing.T) {
	laws := map[string]asym.BetaFunc{
		"erlang2":       betas(t, workload.ErlangArrivals{K: 2}, 0.7),
		"erlang5":       betas(t, workload.ErlangArrivals{K: 5}, 0.4),
		"deterministic": asym.DeterministicBetas(0.6, 1),
		"hyperexp":      betas(t, workload.HyperExp{CV2: 3}, 0.5),
	}
	for name, b := range laws {
		sum := 0.0
		for k := 0; k < 3000; k++ {
			sum += b(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: Σβ_k = %v, want 1", name, sum)
		}
	}
}

// TestSigmaPoissonIsRho is Theorem 3: for Poisson arrivals the root of the
// σ-equation is exactly the traffic intensity ρ.
func TestSigmaPoissonIsRho(t *testing.T) {
	for _, rho := range []float64{0.2, 0.5, 0.75, 0.9, 0.99} {
		if s := sigma(t, workload.Poisson{}, rho); math.Abs(s-rho) > 1e-10 {
			t.Errorf("σ(ρ=%v) = %v, want ρ", rho, s)
		}
	}
}

// TestSigmaOrderingByVariability: smoother arrival processes (lower
// interarrival variability) drain queues better, so at equal utilization
// σ_D < σ_E4 < σ_M < σ_H(cv2=4) — the classic GI/M/1 ordering.
func TestSigmaOrderingByVariability(t *testing.T) {
	const rho = 0.8
	d := sigma(t, workload.DeterministicArrivals{}, rho)
	e4 := sigma(t, workload.ErlangArrivals{K: 4}, rho)
	m := sigma(t, workload.Poisson{}, rho)
	h := sigma(t, workload.HyperExp{CV2: 4}, rho)
	if !(d < e4 && e4 < m && m < h) {
		t.Errorf("σ ordering violated: D=%v, E4=%v, M=%v, H(cv2=4)=%v", d, e4, m, h)
	}
}

// TestSigmaGIM1WaitKnownValue: for M/M/1 (Poisson), the GI/M/1 delay
// formula 1/(μ(1−σ)) must reproduce 1/(1−ρ).
func TestSigmaGIM1WaitKnownValue(t *testing.T) {
	const rho = 0.75
	s := sigma(t, workload.Poisson{}, rho)
	if got, want := 1/(1-s), 1/(1-rho); math.Abs(got-want) > 1e-8 {
		t.Errorf("GI/M/1 delay = %v, want %v", got, want)
	}
}
