package mat

import (
	"fmt"
	"math"
	"sort"
)

// Triplet is a single (row, col, value) entry used to assemble sparse
// matrices. Duplicate (row, col) pairs are summed during assembly.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewCSR assembles a CSR matrix from triplets, summing duplicates.
func NewCSR(rows, cols int, ts []Triplet) *CSR {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", rows, cols))
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Row != ts[j].Row {
			return ts[i].Row < ts[j].Row
		}
		return ts[i].Col < ts[j].Col
	})
	m := &CSR{
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, 0, len(ts)),
		vals:   make([]float64, 0, len(ts)),
	}
	curRow, lastCol := -1, -1
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("mat: triplet (%d,%d) out of range for %d×%d", t.Row, t.Col, rows, cols))
		}
		if t.Row == curRow && t.Col == lastCol {
			m.vals[len(m.vals)-1] += t.Val
			continue
		}
		for r := curRow + 1; r <= t.Row; r++ {
			m.rowPtr[r] = len(m.colIdx)
		}
		curRow, lastCol = t.Row, t.Col
		m.colIdx = append(m.colIdx, t.Col)
		m.vals = append(m.vals, t.Val)
	}
	for r := curRow + 1; r <= rows; r++ {
		m.rowPtr[r] = len(m.colIdx)
	}
	return m
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// RowNZ calls fn for every stored entry (col, val) of row i.
func (m *CSR) RowNZ(i int, fn func(j int, v float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.vals[k])
	}
}

// MulVec returns m·x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("mat: dimension mismatch in CSR.MulVec")
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += float64(m.vals[k] * x[m.colIdx[k]])
		}
		y[i] = s
	}
	return y
}

// StationaryGS solves π·Q = 0, π·e = 1 for an irreducible CTMC generator
// supplied as qt = Qᵀ in CSR form (rows of qt are columns of Q, so each row
// of qt lists the incoming rates of one state plus its diagonal).
//
// It runs Gauss–Seidel sweeps on the fixed point
//
//	π_j = Σ_{i≠j} π_i·q_{ij} / (−q_{jj}),
//
// renormalizing every sweep, until the maximum relative change drops below
// tol. The spectral properties of irreducible generator matrices make this
// iteration convergent for the uniformizable chains used here.
func StationaryGS(qt *CSR, tol float64, maxSweeps int) ([]float64, error) {
	n := qt.rows
	if qt.cols != n {
		panic("mat: StationaryGS requires a square matrix")
	}
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	diag := make([]float64, n)
	for j := 0; j < n; j++ {
		found := false
		qt.RowNZ(j, func(i int, v float64) {
			if i == j {
				diag[j] = v
				found = true
			}
		})
		if !found || diag[j] >= 0 {
			return nil, fmt.Errorf("mat: state %d has no negative diagonal rate (absorbing or malformed generator)", j)
		}
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var maxRel float64
		for j := 0; j < n; j++ {
			var s float64
			qt.RowNZ(j, func(i int, v float64) {
				if i != j {
					s += float64(pi[i] * v)
				}
			})
			next := s / -diag[j]
			old := pi[j]
			pi[j] = next
			denom := math.Max(math.Abs(next), 1e-300)
			if rel := math.Abs(next-old) / denom; rel > maxRel {
				maxRel = rel
			}
		}
		total := VecSum(pi)
		if total <= 0 || math.IsNaN(total) {
			return nil, fmt.Errorf("mat: Gauss-Seidel produced invalid mass %v", total)
		}
		VecScale(pi, 1/total)
		if maxRel < tol {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("stationary Gauss-Seidel after %d sweeps: %w", maxSweeps, ErrNoConverge)
}
