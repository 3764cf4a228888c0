package finitelb

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"finitelb/internal/qbd"
	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(6, 2, 0.9); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	for _, bad := range []struct {
		n, d int
		rho  float64
	}{{0, 1, 0.5}, {3, 0, 0.5}, {3, 4, 0.5}, {3, 2, 0}, {3, 2, 1}, {3, 2, -1}} {
		if _, err := NewSystem(bad.n, bad.d, bad.rho); err == nil {
			t.Errorf("NewSystem(%d, %d, %v) accepted", bad.n, bad.d, bad.rho)
		}
	}
}

// TestSimulateWorkloadSpecs drives the workload knobs through the public
// string-spec surface: defaults must match the explicit default specs bit
// for bit, non-default specs must run (and differ), and malformed specs
// must error out before simulating.
func TestSimulateWorkloadSpecs(t *testing.T) {
	s, err := NewSystem(4, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	base := SimOptions{Jobs: 20_000, Seed: 13}
	def, err := s.Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	spelled := base
	spelled.Arrival, spelled.Service, spelled.Policy = "poisson", "exponential", "sqd"
	if got, err := s.Simulate(spelled); err != nil {
		t.Fatal(err)
	} else if got != def {
		t.Errorf("explicit default specs diverge from zero-value specs:\n%+v\n%+v", got, def)
	}
	bursty := base
	bursty.Arrival, bursty.Service, bursty.Policy, bursty.Speeds = "hyperexp:cv2=4", "pareto:alpha=2.5,h=100", "jiq", "1x2,2x2"
	alt, err := s.Simulate(bursty)
	if err != nil {
		t.Fatal(err)
	}
	if alt == def {
		t.Error("bursty heterogeneous workload produced the default trajectory")
	}
	for _, bad := range []SimOptions{
		{Jobs: 10, Arrival: "nope"},
		{Jobs: 10, Service: "erlang:0"},
		{Jobs: 10, Policy: "sqd:d=99"},
		{Jobs: 10, Speeds: "1,1"},
	} {
		if _, err := s.Simulate(bad); err == nil {
			t.Errorf("Simulate accepted bad spec %+v", bad)
		}
	}
}

func TestAccessors(t *testing.T) {
	s, err := NewSystem(6, 2, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 6 || s.D() != 2 || s.Rho() != 0.75 {
		t.Errorf("accessors: N=%d D=%d ρ=%v", s.N(), s.D(), s.Rho())
	}
}

// TestBoundsSandwichSimulation is the paper's Figure 10 in miniature: for
// SQ(2) with N=3 the bounds must bracket both the exact solve and the
// simulation, the lower bound tightly.
func TestBoundsSandwichSimulation(t *testing.T) {
	s, err := NewSystem(3, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.DelayBounds(3)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.ExactDelay(30)
	if err != nil {
		t.Fatal(err)
	}
	simr, err := s.Simulate(SimOptions{Jobs: 400_000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if !(b.Lower.MeanDelay <= exact.MeanDelay+1e-9 && exact.MeanDelay <= b.Upper.MeanDelay+1e-9) {
		t.Errorf("bounds [%v, %v] do not bracket exact %v", b.Lower.MeanDelay, b.Upper.MeanDelay, exact.MeanDelay)
	}
	slack := 4*simr.HalfWidth + 0.02*exact.MeanDelay
	if !(b.Lower.MeanDelay <= simr.MeanDelay+slack && simr.MeanDelay <= b.Upper.MeanDelay+slack) {
		t.Errorf("bounds [%v, %v] do not bracket simulation %v ± %v",
			b.Lower.MeanDelay, b.Upper.MeanDelay, simr.MeanDelay, simr.HalfWidth)
	}
	if rel := (exact.MeanDelay - b.Lower.MeanDelay) / exact.MeanDelay; rel > 0.05 {
		t.Errorf("lower bound off by %.1f%% at T=3, expected remarkably tight", rel*100)
	}
}

// TestAsymptoticUnderestimatesSmallN reproduces the paper's headline
// observation: at N=3 and high utilization, Eq. (16) sits clearly below
// even the *lower* bound.
func TestAsymptoticUnderestimatesSmallN(t *testing.T) {
	s, err := NewSystem(3, 2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := s.LowerBound(3)
	if err != nil {
		t.Fatal(err)
	}
	if asy := s.AsymptoticDelay(); asy >= lb.MeanDelay {
		t.Errorf("asymptotic %v not below lower bound %v at N=3 ρ=0.95", asy, lb.MeanDelay)
	}
}

// TestLowerBoundPathsAgree: Theorem 3's R = ρᴺ·I (LowerBound) and
// the full matrix-geometric solve of the same lower-bound chain (what
// DelayDistributionBracket runs for its lower side) give one mean delay.
// Over a seeded random grid with d ≥ 2 and T ≤ 3 they agree to 1e-8
// (worst measured 3.4e-9 at (4, 2, .95, 3)). Outside it the two drift
// apart, by an amount the logarithmic-reduction tolerance does not move:
// the last three rows pin the worst cells found at T = 4 and at d = 1 to
// the looser agreement they have today.
func TestLowerBoundPathsAgree(t *testing.T) {
	type cell struct {
		n, d int
		rho  float64
		t    int
		tol  float64
	}
	cells := []cell{
		{6, 2, 0.85, 2, 1e-8},
		{4, 2, 0.9, 3, 1e-8},
		{4, 2, 0.9, 4, 1e-7},  // measured 3.7e-8
		{3, 2, 0.95, 4, 1e-5}, // measured 9.9e-7
		{2, 1, 0.95, 4, 1e-4}, // measured 3.5e-5
	}
	rng := rand.New(rand.NewPCG(16, 3))
	for len(cells) < 17 {
		n := 2 + rng.IntN(7)
		c := cell{n: n, d: 2 + rng.IntN(n-1), rho: 0.3 + 0.65*rng.Float64(), t: 1 + rng.IntN(3), tol: 1e-8}
		if statespace.BinomialInt(c.n+c.t-1, c.t) > 130 {
			continue // block size C(N+T−1, T): keep the dense solves cheap
		}
		cells = append(cells, c)
	}
	for _, c := range cells {
		s, err := NewSystem(c.n, c.d, c.rho)
		if err != nil {
			t.Fatal(err)
		}
		imp, err := s.LowerBound(c.t)
		if err != nil {
			t.Fatalf("%+v: Theorem 3 path: %v", c, err)
		}
		full, err := qbd.Solve(&sqd.LowerBound{P: sqd.BoundParams{Params: s.p, T: c.t}}, qbd.Options{})
		if err != nil {
			t.Fatalf("%+v: matrix-geometric path: %v", c, err)
		}
		if diff := math.Abs(imp.MeanDelay - full.MeanDelay); diff > c.tol {
			t.Errorf("%+v: Theorem 3 path %v ≠ matrix-geometric path %v (|Δ| %.2g)", c, imp.MeanDelay, full.MeanDelay, diff)
		}
		if imp.LRIterations != 0 {
			t.Errorf("%+v: improved path reports %d LR iterations, want 0", c, imp.LRIterations)
		}
		if full.LRIterations < 1 {
			t.Errorf("%+v: matrix-geometric path reports no LR iterations", c)
		}
	}
}

func TestUpperBoundUnstableSurfaces(t *testing.T) {
	s, err := NewSystem(3, 2, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.UpperBound(2)
	if !errors.Is(err, ErrUnstable) {
		t.Errorf("err = %v, want ErrUnstable", err)
	}
	// DelayBounds propagates the failure.
	if _, err := s.DelayBounds(2); !errors.Is(err, ErrUnstable) {
		t.Errorf("DelayBounds err = %v, want ErrUnstable", err)
	}
}

// bracketBits lists the bits of a bracket's means, quantiles and tails.
func bracketBits(b *DelayBracket) []uint64 {
	var bits []uint64
	add := func(lo, hi float64) { bits = append(bits, math.Float64bits(lo), math.Float64bits(hi)) }
	add(b.Mean())
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		add(b.Quantile(q))
	}
	for _, x := range []float64{1, 4, 10} {
		add(b.Tail(x))
	}
	return bits
}

func boundsBits(b Bounds) string {
	return fmt.Sprintf("%x %x %x %x", math.Float64bits(b.Lower.MeanDelay), math.Float64bits(b.Upper.MeanDelay),
		math.Float64bits(b.Lower.MeanWaiting), math.Float64bits(b.Upper.MeanWaiting))
}

// TestDelayDistributionBracketReusesUpperChain: after DelayBounds(4) the
// bracket reads the upper chain DelayBounds solved, instead of solving it
// again, and equals a fresh System's bracket bit for bit.
func TestDelayDistributionBracketReusesUpperChain(t *testing.T) {
	const T = 4
	sys, err := NewSystem(6, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DelayBounds(T); err != nil {
		t.Fatal(err)
	}
	upperKey := chainKey{upper: true, t: T}
	upper := sys.chains[upperKey].sol
	got, err := sys.DelayDistributionBracket(T)
	if err != nil {
		t.Fatal(err)
	}
	if sys.chains[upperKey].sol != upper {
		t.Error("DelayDistributionBracket solved the upper chain again")
	}
	fresh, err := NewSystem(6, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.DelayDistributionBracket(T)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := bracketBits(got), bracketBits(want); !slices.Equal(g, w) {
		t.Errorf("bracket after DelayBounds %x, fresh %x", g, w)
	}
}

// TestUnstableChainNotKept: a chain the drift check refuses is not kept,
// so asking again solves again (and fails again).
func TestUnstableChainNotKept(t *testing.T) {
	sys, err := NewSystem(3, 2, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sys.UpperBound(2); !errors.Is(err, ErrUnstable) {
			t.Fatalf("err = %v, want ErrUnstable", err)
		}
		if _, kept := sys.chains[chainKey{upper: true, t: 2}]; kept {
			t.Fatal("unstable chain kept")
		}
	}
}

// TestSystemConcurrentUse: four goroutines asking one System for bounds
// and brackets get what a fresh System gives, bit for bit (and, under
// -race, without a data race).
func TestSystemConcurrentUse(t *testing.T) {
	const T = 3
	fresh, err := NewSystem(5, 2, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := fresh.DelayBounds(T)
	if err != nil {
		t.Fatal(err)
	}
	wantBr, err := fresh.DelayDistributionBracket(T)
	if err != nil {
		t.Fatal(err)
	}
	want := boundsBits(wantB) + fmt.Sprint(bracketBits(wantBr))

	shared, err := NewSystem(5, 2, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b Bounds
			var br *DelayBracket
			var err error
			if g%2 == 0 { // half ask for the bracket first
				br, err = shared.DelayDistributionBracket(T)
				if err == nil {
					b, err = shared.DelayBounds(T)
				}
			} else {
				b, err = shared.DelayBounds(T)
				if err == nil {
					br, err = shared.DelayDistributionBracket(T)
				}
			}
			if err != nil {
				got[g] = err.Error()
				return
			}
			got[g] = boundsBits(b) + fmt.Sprint(bracketBits(br))
		}()
	}
	wg.Wait()
	for g, s := range got {
		if s != want {
			t.Errorf("goroutine %d: %s, want %s", g, s, want)
		}
	}
}

// TestStableBoundsPastUnstableT: at ρ = 0.98 the N = 3 upper-bound chain
// is unstable through T = 4, so the walk must keep raising T inside the
// block budget, and report the instability once the budget runs out.
func TestStableBoundsPastUnstableT(t *testing.T) {
	sys, err := NewSystem(3, 2, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	b, T, err := sys.StableBounds(1200)
	if err != nil || T < 5 || !(b.Lower.MeanDelay <= b.Upper.MeanDelay) {
		t.Errorf("walk: T=%d bracket [%v, %v] err %v, want a bracket at T ≥ 5", T, b.Lower.MeanDelay, b.Upper.MeanDelay, err)
	}
	if _, _, err := sys.StableBounds(15); !errors.Is(err, ErrUnstable) { // C(6,4) = 15: stops after T = 4
		t.Errorf("walk on a T ≤ 4 budget: %v, want ErrUnstable", err)
	}
}

// TestStartupWalkPinned pins what lbd serves at startup for (8, 2, .85):
// the walk's first stable T, its mean-delay bracket, and the p99 bracket
// of the distributional pair at that T. Each value was computed with the
// matrix-geometric solver and is held to 1e-12 relative, so a solver
// change that moves the served numbers beyond rounding fails here.
func TestStartupWalkPinned(t *testing.T) {
	sys, err := NewSystem(8, 2, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s = %.17g, want %.17g", name, got, want)
		}
	}
	b, T, err := sys.StableBounds(1200)
	if err != nil {
		t.Fatal(err)
	}
	if T != 4 {
		t.Fatalf("walk stopped at T=%d, want 4", T)
	}
	near("lower mean delay", b.Lower.MeanDelay, 2.3548642928897667)
	near("upper mean delay", b.Upper.MeanDelay, 3.478715086654821)
	br, err := sys.DelayDistributionBracket(T)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := br.Quantile(.99)
	near("lower p99", lo, 8.810816433746368)
	near("upper p99", hi, 13.29688160168007)
}

func TestAsymptoticDelayPackageLevel(t *testing.T) {
	if got, want := AsymptoticDelay(1, 0.5), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("AsymptoticDelay(1, 0.5) = %v, want %v", got, want)
	}
	// d=2 at ρ=0.5: 1 + 0.5² + 0.5⁶ + 0.5¹⁴ + … ≈ 1.26568.
	if got := AsymptoticDelay(2, 0.5); math.Abs(got-1.2656860) > 1e-6 {
		t.Errorf("AsymptoticDelay(2, 0.5) = %v", got)
	}
}

func TestSigmaPoissonIsRho(t *testing.T) {
	s, err := NewSystem(3, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"", "poisson"} {
		sigma, err := s.Sigma(spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sigma-0.8) > 1e-9 {
			t.Errorf("%q: σ = %v, want 0.8", spec, sigma)
		}
	}
}

// TestSigmaOtherLaws pins the deterministic and Erlang roots to the
// values of their closed-form β sequences at ρ = .8; a bursty law's root
// lies above ρ.
func TestSigmaOtherLaws(t *testing.T) {
	s, err := NewSystem(3, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for spec, want := range map[string]float64{
		"erlang:3":      0.71093444085526558,
		"erlang:4":      0.69394472175178401,
		"deterministic": 0.6286297964969696,
	} {
		sigma, err := s.Sigma(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
		} else if math.Abs(sigma-want) > 1e-9 {
			t.Errorf("%s: σ = %.17g, want %.17g", spec, sigma, want)
		}
	}
	if sigma, err := s.Sigma("hyperexp:cv2=2"); err != nil || !(0.8 < sigma && sigma < 1) {
		t.Errorf("hyperexp:cv2=2: σ = %v (%v), want inside (ρ, 1)", sigma, err)
	}
	if _, err := s.Sigma("bogus"); err == nil {
		t.Error("bogus spec accepted")
	}
}

func TestExactDelayTruncationReporting(t *testing.T) {
	s, err := NewSystem(2, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExactDelay(25)
	if err != nil {
		t.Fatal(err)
	}
	if res.TruncationMass > 1e-10 {
		t.Errorf("truncation mass %v unexpectedly large", res.TruncationMass)
	}
	if res.MeanDelay <= 1 {
		t.Errorf("delay %v must exceed the unit service time", res.MeanDelay)
	}
}
