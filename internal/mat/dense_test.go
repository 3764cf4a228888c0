package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDenseFrom(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("got %d×%d, want 2×2", m.Rows(), m.Cols())
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("Identity(4).At(%d,%d) = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := NewDenseFrom([][]float64{{19, 22}, {43, 50}})
	if !c.AlmostEqual(want, 0) {
		t.Errorf("Mul:\n%vwant:\n%v", c, want)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 1 + rng.IntN(8)
		a := randomMatrix(rng, n, n, 1)
		return a.Mul(Identity(n)).AlmostEqual(a, 1e-12) &&
			Identity(n).Mul(a).AlmostEqual(a, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		n := 1 + rng.IntN(6)
		a := randomMatrix(rng, n, n, 1)
		b := randomMatrix(rng, n, n, 1)
		c := randomMatrix(rng, n, n, 1)
		return a.Mul(b).Mul(c).AlmostEqual(a.Mul(b.Mul(c)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{4, 3}, {2, 1}})
	if got := a.Add(b); !got.AlmostEqual(NewDenseFrom([][]float64{{5, 5}, {5, 5}}), 0) {
		t.Errorf("Add wrong:\n%v", got)
	}
	if got := a.Sub(a); got.MaxAbs() != 0 {
		t.Errorf("Sub(self) nonzero:\n%v", got)
	}
	if got := a.Scale(2); !got.AlmostEqual(NewDenseFrom([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Errorf("Scale wrong:\n%v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("T shape %d×%d, want 3×2", at.Rows(), at.Cols())
	}
	if at.At(2, 1) != 6 {
		t.Errorf("T()(2,1) = %v, want 6", at.At(2, 1))
	}
	if !at.T().AlmostEqual(a, 0) {
		t.Error("double transpose is not identity")
	}
}

func TestVecMulMulVec(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	x := []float64{1, 1}
	got := a.MulVec(x)
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
	got = a.VecMul(x)
	if got[0] != 4 || got[1] != 6 {
		t.Errorf("VecMul = %v, want [4 6]", got)
	}
}

func TestNorms(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, -2}, {-3, 4}})
	if a.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %v, want 4", a.MaxAbs())
	}
	rs := a.RowSums()
	if rs[0] != -1 || rs[1] != 1 {
		t.Errorf("RowSums = %v, want [-1 1]", rs)
	}
}

func TestLUSolve(t *testing.T) {
	a := NewDenseFrom([][]float64{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}})
	b := []float64{5, -2, 9}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	back := a.MulVec(x)
	for i := range b {
		if math.Abs(back[i]-b[i]) > 1e-10 {
			t.Fatalf("residual %v at %d: Ax = %v, b = %v", back[i]-b[i], i, back, b)
		}
	}
}

func TestLUSolveRandomProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := 1 + rng.IntN(12)
		a := randomDiagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		back := a.MulVec(x)
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := Factorize(a); err == nil {
		t.Error("Factorize of singular matrix succeeded, want error")
	}
}

func TestInverse(t *testing.T) {
	a := NewDenseFrom([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(inv).AlmostEqual(Identity(2), 1e-12) {
		t.Errorf("A·A⁻¹ ≠ I:\n%v", a.Mul(inv))
	}
}

func TestInverseRandomProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 4))
		n := 1 + rng.IntN(10)
		a := randomDiagDominant(rng, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return a.Mul(inv).AlmostEqual(Identity(n), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveLeft(t *testing.T) {
	a := NewDenseFrom([][]float64{{2, 1}, {1, 3}})
	b := []float64{4, 7}
	x, err := SolveLeft(a, b)
	if err != nil {
		t.Fatal(err)
	}
	back := a.VecMul(x)
	for i := range b {
		if math.Abs(back[i]-b[i]) > 1e-12 {
			t.Fatalf("x·A = %v, want %v", back, b)
		}
	}
}

func TestSpectralRadius(t *testing.T) {
	// Stochastic matrix: spectral radius exactly 1.
	p := NewDenseFrom([][]float64{{0.5, 0.5}, {0.2, 0.8}})
	sp, err := SpectralRadius(p, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp-1) > 1e-9 {
		t.Errorf("SpectralRadius(stochastic) = %v, want 1", sp)
	}
	// Strictly substochastic: radius < 1.
	q := p.Scale(0.7)
	sp, err = SpectralRadius(q, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp-0.7) > 1e-9 {
		t.Errorf("SpectralRadius(0.7·stochastic) = %v, want 0.7", sp)
	}
}

func TestDotVecHelpers(t *testing.T) {
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Errorf("Dot = %v, want 32", d)
	}
	if s := VecSum([]float64{1, 2, 3}); s != 6 {
		t.Errorf("VecSum = %v, want 6", s)
	}
	x := VecScale([]float64{2, 4}, 0.5)
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("VecScale = %v, want [1 2]", x)
	}
}

// randomMatrix returns an r×c matrix with entries uniform in [−scale, scale].
func randomMatrix(rng *rand.Rand, r, c int, scale float64) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, (rng.Float64()*2-1)*scale)
		}
	}
	return m
}

// randomDiagDominant returns a well-conditioned random square matrix.
func randomDiagDominant(rng *rand.Rand, n int) *Dense {
	m := randomMatrix(rng, n, n, 1)
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n)+1)
	}
	return m
}

// mulNaive is the straightforward triple loop, the reference the blocked
// MulTo must agree with exactly on zero-free inputs (identical operation
// order per output element is not guaranteed, hence the tolerance below).
func mulNaive(a, b *Dense) *Dense {
	c := NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// TestMulToBlockedMatchesNaive checks the cache-blocked product against the
// naive reference on random matrices spanning the tile boundaries (sizes
// below, at, and above the 64/512 block edges).
func TestMulToBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 5, 2}, {17, 9, 31},
		{63, 64, 65}, {64, 64, 64}, {65, 130, 64},
		{70, 600, 9}, {5, 64, 520},
	} {
		a := randomDense(rng, dims[0], dims[1])
		b := randomDense(rng, dims[1], dims[2])
		want := mulNaive(a, b)
		got := NewDense(dims[0], dims[2])
		// Pre-dirty the destination: MulTo must overwrite, not accumulate.
		for i := range got.data {
			got.data[i] = 99
		}
		a.MulTo(got, b)
		tol := 1e-12 * float64(dims[1]) * (1 + want.MaxAbs())
		if !got.AlmostEqual(want, tol) {
			t.Errorf("%v: blocked MulTo disagrees with naive product", dims)
		}
		if alloc := a.Mul(b); !alloc.AlmostEqual(want, tol) {
			t.Errorf("%v: Mul disagrees with naive product", dims)
		}
	}
}

func TestMulToPanicsOnAliasAndShape(t *testing.T) {
	a := Identity(3)
	b := Identity(3)
	for name, fn := range map[string]func(){
		"dst aliases left":  func() { a.MulTo(a, b) },
		"dst aliases right": func() { a.MulTo(b, b) },
		"wrong dst shape":   func() { a.MulTo(NewDense(2, 3), b) },
		"inner mismatch":    func() { a.MulTo(NewDense(3, 2), NewDense(4, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestInPlaceHelpers(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{10, 20}, {30, 40}})
	m.AddScaled(b, 0.5)
	if !m.AlmostEqual(NewDenseFrom([][]float64{{6, 12}, {18, 24}}), 0) {
		t.Errorf("AddScaled: got %v", m)
	}
	m.CopyFrom(b)
	if !m.AlmostEqual(b, 0) {
		t.Errorf("CopyFrom: got %v", m)
	}
	m.SetIdentity()
	if !m.AlmostEqual(Identity(2), 0) {
		t.Errorf("SetIdentity: got %v", m)
	}
}

// BenchmarkMulTo tracks the blocked product at the QBD block sizes that
// dominate the figure solves (56 = Fig 10c, 364 = Fig 10d).
func BenchmarkMulTo(b *testing.B) {
	for _, n := range []int{56, 364} {
		rng := rand.New(rand.NewPCG(1, 1))
		a := randomDense(rng, n, n)
		c := randomDense(rng, n, n)
		dst := NewDense(n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.MulTo(dst, c)
			}
		})
	}
}

// sameBits reports the first element where a and b differ in any bit.
func sameBits(t *testing.T, what string, a, b *Dense) {
	t.Helper()
	if a.rows != b.rows || a.cols != b.cols {
		t.Fatalf("%s: shape %d×%d vs %d×%d", what, a.rows, a.cols, b.rows, b.cols)
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			t.Fatalf("%s: element (%d, %d) is %v, want %v bit for bit", what, i/a.cols, i%a.cols, v, b.data[i])
		}
	}
}

// sparseMatrix returns an r×c matrix whose entries are zero with
// probability zeroP and uniform in [−1, 1) otherwise.
func sparseMatrix(rng *rand.Rand, r, c int, zeroP float64) *Dense {
	m := randomMatrix(rng, r, c, 1)
	for i := range m.data {
		if rng.Float64() < zeroP {
			m.data[i] = 0
		}
	}
	return m
}

// TestSolveMatMatchesColumnSolve: the row-by-row SolveMat equals Solve on
// each column bit for bit — on dense and sparse matrices that need
// pivoting, and on right-hand sides with zero columns.
func TestSolveMatMatchesColumnSolve(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 33))
	pivoted := 0
	for n := 1; n <= 70; n++ {
		for _, zeroP := range []float64{0, 0.7} {
			a := sparseMatrix(rng, n, n, zeroP)
			for i := 0; i < n; i++ {
				a.Inc(i, (i+1)%n, 4) // nonsingular, and off the diagonal: pivoting needed
			}
			f, err := Factorize(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i, p := range f.piv {
				if p != i {
					pivoted++
					break
				}
			}
			b := sparseMatrix(rng, n, 1+rng.IntN(6), zeroP)
			for i := 0; i < n; i++ {
				b.Set(i, 0, 0) // one all-zero right-hand side
			}
			want := NewDense(n, b.cols)
			col := make([]float64, n)
			for j := 0; j < b.cols; j++ {
				for i := range col {
					col[i] = b.At(i, j)
				}
				for i, v := range f.Solve(col) {
					want.Set(i, j, v)
				}
			}
			sameBits(t, fmt.Sprintf("n=%d zeroP=%v SolveMat", n, zeroP), f.SolveMat(b), want)
		}
	}
	if pivoted < 100 {
		t.Errorf("only %d of 140 factorizations pivoted", pivoted)
	}
}

// TestCompactedOperandsMatchFull: on matrices whose zero columns are
// known, the product, solve and scatter-add of the compacted operands
// (the logarithmic reduction's form) equal the dense ones bit for bit.
func TestCompactedOperandsMatchFull(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 4))
	for _, n := range []int{1, 5, 64, 70, 130} {
		pick := func() []int { // a nonempty ascending column subset
			var cols []int
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.2 {
					cols = append(cols, j)
				}
			}
			if len(cols) == 0 {
				cols = []int{rng.IntN(n)}
			}
			return cols
		}
		withCols := func(cols []int) *Dense { // nonzero exactly on cols
			m := NewDense(n, n)
			for _, j := range cols {
				for i := 0; i < n; i++ {
					m.Set(i, j, rng.Float64()*2-1)
				}
				m.Set(rng.IntN(n), j, 1+rng.Float64()) // and never all zero
			}
			return m
		}
		k, j := pick(), pick()
		left, right := withCols(k), withCols(j)
		if got := left.NonzeroCols(); !slices.Equal(got, k) {
			t.Fatalf("n=%d: NonzeroCols = %v, want %v", n, got, k)
		}
		full := left.Mul(right)
		for i := 0; i < n; i++ {
			for c := 0; c < n; c++ {
				if v := full.At(i, c); !slices.Contains(j, c) && math.Float64bits(v) != 0 {
					t.Fatalf("n=%d: product (%d, %d) = %v in a zero column of the right operand, want +0", n, i, c, v)
				}
			}
		}
		compact := left.Select(nil, k).Mul(right.Select(k, j))
		sameBits(t, fmt.Sprintf("n=%d product", n), compact, full.Select(nil, j))

		a := randomDiagDominant(rng, n)
		f, err := Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("n=%d solve", n), f.SolveMat(right.Select(nil, j)), f.SolveMat(right).Select(nil, j))

		dense, scattered := a.Clone(), a.Clone()
		dense.AddScaled(right, -1)
		scattered.AddScaledCols(right.Select(nil, j), -1, j)
		sameBits(t, fmt.Sprintf("n=%d scatter-add", n), scattered, dense)
	}
}
