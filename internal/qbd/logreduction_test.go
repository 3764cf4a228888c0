package qbd

import (
	"math"
	"slices"
	"testing"

	"finitelb/internal/mat"
)

// TestGRowStochastic: for a recurrent QBD, G's rows are probability
// distributions (first-passage probabilities into the lower block).
func TestGRowStochastic(t *testing.T) {
	for _, cfg := range []struct {
		model BoundModel
	}{
		{lbModel(3, 2, 0.8, 2)},
		{lbModel(4, 2, 0.9, 2)},
		{ubModel(3, 2, 0.5, 2)},
		{lbModel(2, 2, 0.6, 3)},
	} {
		b, err := NewBlocks(cfg.model)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := LogReduction(b.A0, b.A1, b.A2, 1e-13)
		if err != nil {
			t.Fatalf("%T: %v", cfg.model, err)
		}
		for i, s := range g.RowSums() {
			if math.Abs(s-1) > 1e-10 {
				t.Errorf("%T: G row %d sums to %v", cfg.model, i, s)
			}
		}
		for i := 0; i < g.Rows(); i++ {
			for j := 0; j < g.Cols(); j++ {
				if g.At(i, j) < -1e-12 {
					t.Errorf("%T: G[%d][%d] = %v negative", cfg.model, i, j, g.At(i, j))
				}
			}
		}
	}
}

// TestRSpectralRadius: the rate matrix of a positive-recurrent QBD must
// have spectral radius < 1 (it equals ρᴺ for the lower-bound model).
func TestRSpectralRadius(t *testing.T) {
	for _, cfg := range []struct {
		n, d  int
		rho   float64
		tt    int
		exact float64 // expected sp(R), 0 = only check < 1
	}{
		{3, 2, 0.8, 2, math.Pow(0.8, 3)},
		{4, 2, 0.9, 2, math.Pow(0.9, 4)},
		{2, 2, 0.5, 3, 0.25},
	} {
		sol, err := Solve(lbModel(cfg.n, cfg.d, cfg.rho, cfg.tt), Options{})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := mat.SpectralRadius(sol.R, 1e-12, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if sp >= 1 {
			t.Errorf("%+v: sp(R) = %v ≥ 1", cfg, sp)
		}
		if cfg.exact > 0 && math.Abs(sp-cfg.exact) > 1e-8 {
			t.Errorf("%+v: sp(R) = %v, want ρᴺ = %v", cfg, sp, cfg.exact)
		}
	}
}

// TestRateMatrixQuadratic: R satisfies its defining equation
// 0 = A0 + R·A1 + R²·A2 (checked internally; re-verified here explicitly).
func TestRateMatrixQuadratic(t *testing.T) {
	b, err := NewBlocks(ubModel(3, 2, 0.55, 2))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := LogReduction(b.A0, b.A1, b.A2, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RateMatrix(b.A0, b.A1, b.A2, g)
	if err != nil {
		t.Fatal(err)
	}
	res := b.A0.Add(r.Mul(b.A1)).Add(r.Mul(r).Mul(b.A2))
	if res.MaxAbs() > 1e-9 {
		t.Errorf("quadratic residual %v", res.MaxAbs())
	}
}

// TestGQuadratic: G satisfies 0 = A2 + A1·G + A0·G².
func TestGQuadratic(t *testing.T) {
	b, err := NewBlocks(lbModel(3, 2, 0.85, 2))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := LogReduction(b.A0, b.A1, b.A2, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	res := b.A2.Add(b.A1.Mul(g)).Add(b.A0.Mul(g).Mul(g))
	if res.MaxAbs() > 1e-9 {
		t.Errorf("G quadratic residual %v", res.MaxAbs())
	}
}

// TestDriftMatchesLoadLB: drifts are measured in block crossings (one
// block = N jobs). The lower-bound model preserves all capacity and its
// level process is pattern-independent, so the stationary phase over the N
// totals of a block is uniform: up-drift = λN/N = ρ and down-drift =
// N/N = 1, exactly.
func TestDriftMatchesLoadLB(t *testing.T) {
	const n, d, rho = 4, 2, 0.8
	b, err := NewBlocks(lbModel(n, d, rho, 2))
	if err != nil {
		t.Fatal(err)
	}
	up, down, err := Drift(b.A0, b.A1, b.A2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(up-rho) > 1e-9 {
		t.Errorf("up-drift = %v, want ρ = %v", up, rho)
	}
	if math.Abs(down-1) > 1e-9 {
		t.Errorf("down-drift = %v, want 1", down)
	}
}

// TestDriftUpperBoundLosesCapacity: the upper bound's wasted services and
// phantom arrivals must show up as up-drift above λN and/or down-drift
// below N.
func TestDriftUpperBoundLosesCapacity(t *testing.T) {
	const n, d, rho = 3, 2, 0.8
	b, err := NewBlocks(ubModel(n, d, rho, 2))
	if err != nil {
		t.Fatal(err)
	}
	up, down, err := Drift(b.A0, b.A1, b.A2)
	if err != nil {
		t.Fatal(err)
	}
	realSlack := 1 - rho // block-crossing units: the lower bound's margin
	if down-up >= realSlack {
		t.Errorf("upper bound drift margin %v not smaller than real slack %v", down-up, realSlack)
	}
}

// TestGZeroColumnsFollowA2: G has zero columns exactly where A2 does, and
// they hold +0, which is what lets LogReduction carry only the nonzero
// columns. The block-330 chain is lbd's startup point.
func TestGZeroColumnsFollowA2(t *testing.T) {
	for _, model := range []BoundModel{ubModel(8, 2, 0.85, 4), ubModel(6, 2, 0.7, 3)} {
		b, err := NewBlocks(model)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := LogReduction(b.A0, b.A1, b.A2, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		nz := b.A2.NonzeroCols()
		if got := g.NonzeroCols(); !slices.Equal(got, nz) {
			t.Errorf("%+v: G's nonzero columns %v, A2's %v", b.P, got, nz)
		}
		if len(nz) >= b.BlockSize()/2 {
			t.Errorf("%+v: A2 has %d nonzero columns of %d; expected a sparse down block", b.P, len(nz), b.BlockSize())
		}
		for i := 0; i < g.Rows(); i++ {
			for j, v := range g.Row(i) {
				if v == 0 && math.Float64bits(v) != 0 {
					t.Fatalf("%+v: G[%d][%d] is −0", b.P, i, j)
				}
			}
		}
	}
}
