// Package mat provides the dense and sparse linear algebra needed by the
// matrix-geometric machinery: LU factorization with partial pivoting,
// linear solves on both sides, inverses, norms, power iteration, and
// stationary-distribution solvers for large sparse generators.
//
// It is deliberately small and allocation-conscious rather than general:
// everything operates on float64, matrices are dense row-major or CSR, and
// dimensions are validated eagerly with panics (programmer errors) while
// numerical failures (singularity, non-convergence) are reported as errors.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// Dense is a dense row-major matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseFrom builds a matrix from a slice of rows, copying the data.
func NewDenseFrom(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.cols {
			panic("mat: ragged rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Inc adds v to the element at row i, column j.
func (m *Dense) Inc(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom overwrites m with the contents of b (shapes must match).
func (m *Dense) CopyFrom(b *Dense) {
	m.sameShape(b)
	copy(m.data, b.data)
}

// SetIdentity overwrites a square m with the identity matrix.
func (m *Dense) SetIdentity() {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: SetIdentity on %d×%d", m.rows, m.cols))
	}
	for i := range m.data {
		m.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] = 1
	}
}

// AddScaled updates m in place to m + s·b.
func (m *Dense) AddScaled(b *Dense, s float64) {
	m.sameShape(b)
	for i, v := range b.data {
		m.data[i] += float64(s * v)
	}
}

// AddScaledCols adds s·b into the columns cols of m: column c of b lands in
// column cols[c]. Each touched element sees the one rounding AddScaled
// gives it, so on a b compacted by Select(nil, cols) from a matrix that is
// zero outside cols, the sum equals AddScaled's bit for bit (adding s·0 to
// an element leaves it unchanged, barring the sign of a zero).
func (m *Dense) AddScaledCols(b *Dense, s float64, cols []int) {
	if b.rows != m.rows || b.cols != len(cols) {
		panic(fmt.Sprintf("mat: AddScaledCols of %d×%d into %d columns of %d×%d", b.rows, b.cols, len(cols), m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		mi, bi := m.Row(i), b.Row(i)
		for c, j := range cols {
			mi[j] += float64(s * bi[c])
		}
	}
}

// Select returns the submatrix of m on the listed rows and columns, in
// list order; a nil list selects every row or column.
func (m *Dense) Select(rows, cols []int) *Dense {
	if rows == nil {
		rows = seq(m.rows)
	}
	if cols == nil {
		cols = seq(m.cols)
	}
	s := NewDense(len(rows), len(cols))
	for r, i := range rows {
		mi, si := m.Row(i), s.Row(r)
		for c, j := range cols {
			si[c] = mi[j]
		}
	}
	return s
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// NonzeroCols lists, in ascending order, the columns of m that hold a
// nonzero entry.
func (m *Dense) NonzeroCols() []int {
	nz := make([]bool, m.cols)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			if v != 0 {
				nz[j] = true
			}
		}
	}
	var cols []int
	for j, ok := range nz {
		if ok {
			cols = append(cols, j)
		}
	}
	return cols
}

// Add returns m + b as a new matrix.
func (m *Dense) Add(b *Dense) *Dense {
	m.sameShape(b)
	c := m.Clone()
	for i, v := range b.data {
		c.data[i] += v
	}
	return c
}

// Sub returns m − b as a new matrix.
func (m *Dense) Sub(b *Dense) *Dense {
	m.sameShape(b)
	c := m.Clone()
	for i, v := range b.data {
		c.data[i] -= v
	}
	return c
}

// Scale returns s·m as a new matrix.
func (m *Dense) Scale(s float64) *Dense {
	c := m.Clone()
	for i := range c.data {
		c.data[i] *= s
	}
	return c
}

// Mul returns the matrix product m·b as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	c := NewDense(m.rows, b.cols)
	m.MulTo(c, b)
	return c
}

// Matmul tile sizes: a kBlock×jBlock tile of b (64×512 float64s = 256 KiB)
// stays resident in L2 while every row of m streams against it.
const (
	mulKBlock = 64
	mulJBlock = 512
)

// MulTo computes the matrix product m·b into dst, which must be a
// preallocated m.Rows()×b.Cols() matrix distinct from m and b; dst's prior
// contents are overwritten. Hot solvers (the QBD logarithmic reduction)
// call this with reused workspaces to avoid per-iteration allocation.
//
// The inner loops are cache-blocked: the k (depth) and j (column)
// dimensions are tiled so each tile of b is loaded into cache once and
// reused across all rows of m, instead of being streamed from memory for
// every row as the naive ikj order does on large operands.
//
// Each element of dst is 0 + Σ_k m_ik·b_kj, summed in ascending k with
// every zero m_ik skipped, and a zero column of b yields a column of +0.
// So the product of operands compacted by Select — the zero columns of m
// dropped together with the matching rows of b, and the zero columns of b
// dropped — equals the selected part of the full product bit for bit, at
// a fraction of the work: the logarithmic reduction relies on this.
func (m *Dense) MulTo(dst, b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: dimension mismatch %d×%d · %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	if dst == m || dst == b {
		panic("mat: MulTo destination aliases an operand")
	}
	if dst.rows != m.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTo destination %d×%d, want %d×%d", dst.rows, dst.cols, m.rows, b.cols))
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	for kk := 0; kk < m.cols; kk += mulKBlock {
		kend := min(kk+mulKBlock, m.cols)
		for jj := 0; jj < b.cols; jj += mulJBlock {
			jend := min(jj+mulJBlock, b.cols)
			for i := 0; i < m.rows; i++ {
				ci := dst.data[i*dst.cols+jj : i*dst.cols+jend]
				mi := m.data[i*m.cols : (i+1)*m.cols]
				for k := kk; k < kend; k++ {
					a := mi[k]
					if a == 0 {
						continue
					}
					axpy(a, b.data[k*b.cols+jj:k*b.cols+jend], ci)
				}
			}
		}
	}
	return dst
}

// axpy adds a·x to y, element by element (len(y) ≥ len(x)). Each product
// is rounded before it is added, so no platform fuses the two, and
// y − a·x is computed as y + (−a)·x, which is the same number. The loop is
// unrolled by four; every element still sees one product and one add.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	j := 0
	for ; j+4 <= len(x); j += 4 {
		xs, ys := x[j:j+4:j+4], y[j:j+4:j+4]
		ys[0] += float64(a * xs[0])
		ys[1] += float64(a * xs[1])
		ys[2] += float64(a * xs[2])
		ys[3] += float64(a * xs[3])
	}
	for ; j < len(x); j++ {
		y[j] += float64(a * x[j])
	}
}

// MulVec returns the matrix-vector product m·x.
func (m *Dense) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic("mat: dimension mismatch in MulVec")
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += float64(v * x[j])
		}
		y[i] = s
	}
	return y
}

// VecMul returns the vector-matrix product x·m (x as a row vector).
func (m *Dense) VecMul(x []float64) []float64 {
	if m.rows != len(x) {
		panic("mat: dimension mismatch in VecMul")
	}
	y := make([]float64, m.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += float64(xi * v)
		}
	}
	return y
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// MaxAbs returns the largest absolute entry of m.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// RowSums returns the vector of row sums.
func (m *Dense) RowSums() []float64 {
	s := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		for _, v := range m.Row(i) {
			s[i] += v
		}
	}
	return s
}

// AlmostEqual reports whether every entry of m and b differs by at most tol.
func (m *Dense) AlmostEqual(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

func (m *Dense) sameShape(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: shape mismatch %d×%d vs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("%10.5f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
