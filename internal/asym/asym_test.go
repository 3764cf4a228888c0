package asym

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDelayD1IsMM1(t *testing.T) {
	for _, rho := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := 1 / (1 - rho)
		if got := Delay(1, rho); math.Abs(got-want) > 1e-12*want {
			t.Errorf("Delay(1, %v) = %v, want %v", rho, got, want)
		}
	}
}

func TestDelayD2Series(t *testing.T) {
	// d=2: E[Delay] = Σ ρ^{2ⁱ−2} = 1 + ρ² + ρ⁶ + ρ¹⁴ + …
	rho := 0.9
	want := 0.0
	for i := 1; i <= 30; i++ {
		want += math.Pow(rho, math.Pow(2, float64(i))-2)
	}
	if got := Delay(2, rho); math.Abs(got-want) > 1e-12 {
		t.Errorf("Delay(2, 0.9) = %v, want %v", got, want)
	}
}

func TestDelayLimits(t *testing.T) {
	// Low utilization: delay → 1 (pure service time).
	if got := Delay(2, 0.01); math.Abs(got-1) > 1e-3 {
		t.Errorf("Delay(2, 0.01) = %v, want ≈ 1", got)
	}
	// Exponential improvement: at ρ=0.99, SQ(2) delay is dramatically
	// smaller than M/M/1's 100.
	if d1, d2 := Delay(1, 0.99), Delay(2, 0.99); d1/d2 < 10 {
		t.Errorf("power-of-two collapse missing: d1=%v, d2=%v", d1, d2)
	}
}

func TestDelayMonotoneInD(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 51))
		rho := 0.05 + 0.9*rng.Float64()
		prev := Delay(1, rho)
		for d := 2; d <= 6; d++ {
			cur := Delay(d, rho)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Delay(0, 0.5) },
		func() { Delay(2, 0) },
		func() { Delay(2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Delay accepted invalid arguments")
				}
			}()
			fn()
		}()
	}
}

func TestSigmaUnstableHasNoRoot(t *testing.T) {
	// ρ ≥ 1: the embedded queue is unstable and the root leaves (0,1).
	if _, err := SolveSigma(DeterministicBetas(1.2, 1), 1e-12); err == nil {
		t.Error("SolveSigma found a root for an unstable system")
	}
}
