package finitelb

import (
	"math"
	"testing"
)

func TestLowerBoundGIPoissonMatchesLowerBound(t *testing.T) {
	s, err := NewSystem(3, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ctmc, err := s.LowerBound(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"", "poisson"} {
		gi, err := s.LowerBoundGI(2, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if gi.FrontierMass > 1e-8 {
			t.Fatalf("%q: frontier mass %v", spec, gi.FrontierMass)
		}
		if rel := math.Abs(gi.MeanDelay-ctmc.MeanDelay) / ctmc.MeanDelay; rel > 1e-6 {
			t.Errorf("%q: GI-Poisson %v vs CTMC %v", spec, gi.MeanDelay, ctmc.MeanDelay)
		}
	}
}

// TestLowerBoundGIMatchesShapes pins the Erlang and Poisson bounds at a
// fixed truncation (N=3, d=2, ρ=.85, T=2, 40 blocks) to 1e-12.
func TestLowerBoundGIMatchesShapes(t *testing.T) {
	s, err := NewSystem(3, 2, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for spec, want := range map[string]float64{
		"erlang:4": 2.1660184545616881,
		"erlang:2": 2.3903313736363594,
		"poisson":  2.8537740537707954,
	} {
		r, err := s.LowerBoundGI(2, spec, 124)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(r.MeanDelay-want) / want; rel > 1e-12 {
			t.Errorf("%s: %.17g, want %.17g", spec, r.MeanDelay, want)
		}
	}
}

func TestLowerBoundGIVariabilityOrdering(t *testing.T) {
	s, err := NewSystem(3, 2, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	delay := func(spec string) float64 {
		r, err := s.LowerBoundGI(2, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanDelay
	}
	smooth := delay("erlang:4")
	poisson := delay("poisson")
	bursty := delay("hyperexp:cv2=2")
	if !(smooth < poisson && poisson < bursty) {
		t.Errorf("ordering violated: E4 %v, M %v, H2 %v", smooth, poisson, bursty)
	}
}

// TestLowerBoundGIDepthFollowsSigma: the automatic depth comes from the
// law's own σ, so a bursty law is solved to its digits or refused, never
// silently truncated.
func TestLowerBoundGIDepthFollowsSigma(t *testing.T) {
	s, err := NewSystem(3, 2, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.LowerBoundGI(2, "hyperexp:cv2=4", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.FrontierMass > 1e-9 {
		t.Errorf("frontier mass %v", r.FrontierMass)
	}
	if math.Abs(r.MeanDelay-5.5014) > 1e-4 {
		t.Errorf("cv2=4: delay %v, want 5.5014", r.MeanDelay)
	}
	if _, err := s.LowerBoundGI(2, "hyperexp:cv2=100", 0); err == nil {
		t.Error("cv2=100: depth beyond the state budget accepted")
	}
}

// TestLowerBoundGIBelowSimulation is the founding claim for renewal
// arrivals: the GI lower bound sits below the simulated SQ(d) delay under
// the same arrival spec.
func TestLowerBoundGIBelowSimulation(t *testing.T) {
	for _, c := range []struct {
		n   int
		rho float64
	}{{3, 0.85}, {4, 0.7}} {
		s, err := NewSystem(c.n, 2, c.rho)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"erlang:4", "poisson", "hyperexp:cv2=2", "hyperexp:cv2=4"} {
			lo, err := s.LowerBoundGI(2, spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := s.Simulate(SimOptions{Jobs: 300_000, Seed: 5, Arrival: spec})
			if err != nil {
				t.Fatal(err)
			}
			if lo.MeanDelay > sim.MeanDelay+5*sim.HalfWidth {
				t.Errorf("N=%d ρ=%g %s: GI lower bound %v above simulated %v ± %v",
					c.n, c.rho, spec, lo.MeanDelay, sim.MeanDelay, sim.HalfWidth)
			}
		}
	}
}

func TestLowerBoundGIRejectsSpecs(t *testing.T) {
	s, err := NewSystem(3, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"deterministic", "bogus", "erlang:0", "hyperexp:cv2=0.5"} {
		if _, err := s.LowerBoundGI(2, spec, 0); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}
