package finitelb

import (
	"fmt"
	"math"

	"finitelb/internal/embedded"
	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

// GIBoundResult extends BoundResult with the embedded-chain diagnostics of
// the general-arrivals construction.
type GIBoundResult struct {
	BoundResult
	// FrontierMass is the stationary mass near the numerical truncation;
	// it must be ≈ 0 for the digits to be trustworthy.
	FrontierMass float64
}

// LowerBoundGI computes the finite-regime lower bound for *renewal*
// (non-Poisson) arrivals, realizing Theorem 2's embedded-chain setting:
// the jockeying model observed just before arrivals, whose stationary
// tail decays by σᴺ per block with σ the root of x = Σ xᵏβ_k (Sigma
// returns σ itself). arrival takes the grammar of SimOptions.Arrival —
// "" or "poisson", "erlang:K", "hyperexp:CV2" — with the parameters the
// simulator samples; deterministic arrivals have no phase-type form and
// are an error.
//
// maxTotal truncates the state space; pass 0 for the depth the law's own
// σ asks for: the fewest repeating blocks, at least 6, whose tail factor
// σ^(N·blocks) is ≤ 1e-12. When that depth exceeds the dense solver's
// state budget the call fails rather than return truncated digits. For
// Poisson arrivals this agrees with LowerBound to solver precision.
func (s *System) LowerBoundGI(t int, arrival string, maxTotal int) (GIBoundResult, error) {
	a, err := workload.ParseArrival(arrival)
	if err != nil {
		return GIBoundResult{}, fmt.Errorf("finitelb: GI lower bound: %w", err)
	}
	law, err := embedded.LawOf(a, s.p.TotalArrivalRate())
	if err != nil {
		return GIBoundResult{}, fmt.Errorf("finitelb: GI lower bound: %w", err)
	}
	if maxTotal <= 0 {
		sigma, err := embedded.Sigma(a, s.p.Rho)
		if err != nil {
			return GIBoundResult{}, fmt.Errorf("finitelb: GI lower bound: %w", err)
		}
		blocks := int(math.Ceil(math.Log(1e-12) / (float64(s.p.N) * math.Log(sigma))))
		maxTotal = (s.p.N-1)*t + max(blocks, 6)*s.p.N
	}
	ch, err := embedded.New(sqd.BoundParams{Params: s.p, T: t}, law, maxTotal)
	if err != nil {
		return GIBoundResult{}, fmt.Errorf("finitelb: GI lower bound: %w", err)
	}
	res, err := ch.Solve()
	if err != nil {
		return GIBoundResult{}, fmt.Errorf("finitelb: GI lower bound: %w", err)
	}
	return GIBoundResult{
		BoundResult: BoundResult{
			MeanDelay:   res.MeanDelay,
			MeanWait:    res.MeanWait,
			MeanWaiting: res.MeanWaiting,
			T:           t,
		},
		FrontierMass: ch.FrontierMass(res.Pi),
	}, nil
}

// Sigma returns σ, the root of Theorem 2's embedded-chain equation
// x = Σ xᵏβ_k, for the interarrival law named by arrival (the grammar of
// SimOptions.Arrival, deterministic included) at this system's
// utilization: the lower-bound model's per-block tail factor is σᴺ and
// the GI/M/1 mean delay is 1/(1−σ). For Poisson arrivals σ = ρ
// (Theorem 3).
func (s *System) Sigma(arrival string) (float64, error) {
	a, err := workload.ParseArrival(arrival)
	if err != nil {
		return 0, fmt.Errorf("finitelb: sigma: %w", err)
	}
	sigma, err := embedded.Sigma(a, s.p.Rho)
	if err != nil {
		return 0, fmt.Errorf("finitelb: sigma: %w", err)
	}
	return sigma, nil
}
