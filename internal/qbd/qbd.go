// Package qbd implements the matrix-geometric solution of Section IV: it
// assembles the block-structured generator of a bound model (boundary block
// plus level-independent blocks A0, A1, A2), computes the matrix G by
// Latouche–Ramaswami logarithmic reduction and the rate matrix
// R = −A0(A1 + A0·G)⁻¹, checks the drift stability condition
// πA0e < πA2e, solves the boundary balance equations (13)/(14) with the
// matrix-geometric normalization, and extracts the paper's delay metrics.
package qbd

import (
	"errors"
	"fmt"

	"finitelb/internal/mat"
	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
)

// ErrUnstable is returned when the QBD drift condition fails: the modified
// (upper-bound) system has insufficient effective capacity at this ρ and T.
var ErrUnstable = errors.New("qbd: drift condition πA0e < πA2e violated")

// BoundModel is an sqd model restricted to the truncated space S, i.e. the
// lower- or upper-bound model.
type BoundModel interface {
	sqd.Model
	Bound() sqd.BoundParams
}

// Blocks is the block decomposition of a bound model's generator, in the
// notation of Section IV-A.
type Blocks struct {
	P        sqd.BoundParams
	Boundary *statespace.Index // states with #m ≤ (N−1)T
	B0, B1   []statespace.State

	// The boundary blocks. Solve sets them to nil once the boundary
	// system is solved: nothing else reads them.
	R00 *mat.Dense // boundary → boundary (with boundary diagonals)
	R01 *mat.Dense // boundary → B0
	R10 *mat.Dense // B0 → boundary
	A0  *mat.Dense // Bq → Bq+1 (up)
	A1  *mat.Dense // Bq → Bq (local, with non-boundary diagonals)
	A2  *mat.Dense // Bq → Bq−1 (down)
}

// BlockSize returns the per-block state count C(N+T−1, T).
func (b *Blocks) BlockSize() int { return len(b.B0) }

// NewBlocks assembles the block matrices for model by instantiating
// concrete states and binning their transitions, rather than deriving the
// repeating structure symbolically. The A-matrices are built from block B1
// and cross-checked against block B2 (Lemma 1's shift invariance); any
// discrepancy is reported as an error since it would indicate a model that
// is not level-independent.
func NewBlocks(model BoundModel) (*Blocks, error) {
	p := model.Bound()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, t := p.N, p.T
	b := &Blocks{
		P:        p,
		Boundary: statespace.NewIndex(statespace.BoundaryStates(n, t)),
		B0:       statespace.BlockStates(n, t, 0),
		B1:       statespace.BlockStates(n, t, 1),
	}
	m := len(b.B0)
	nb := b.Boundary.Len()
	b.R00 = mat.NewDense(nb, nb)
	b.R01 = mat.NewDense(nb, m)
	b.R10 = mat.NewDense(m, nb)

	ix0 := statespace.NewIndex(b.B0)
	ix1 := statespace.NewIndex(b.B1)
	ix2 := statespace.NewIndex(statespace.BlockStates(n, t, 2))
	ix3 := statespace.NewIndex(statespace.BlockStates(n, t, 3))

	// Boundary rows: targets stay in the boundary or enter B0.
	for i := 0; i < nb; i++ {
		s := b.Boundary.At(i)
		for _, tr := range sqd.Merged(model.Transitions(s)) {
			switch {
			case tr.To.Equal(s):
				continue
			default:
				if j, ok := b.Boundary.Of(tr.To); ok {
					b.R00.Inc(i, j, tr.Rate)
				} else if j, ok := ix0.Of(tr.To); ok {
					b.R01.Inc(i, j, tr.Rate)
				} else {
					return nil, fmt.Errorf("qbd: boundary transition %v → %v escapes boundary∪B0", s, tr.To)
				}
				b.R00.Inc(i, i, -tr.Rate)
			}
		}
	}

	// B0 rows give R10 (down into the boundary); their local/up parts must
	// coincide with A1/A0 by shift invariance, which the B2 cross-check
	// below certifies, so only the boundary-bound rates are recorded here.
	for i, s := range b.B0 {
		for _, tr := range sqd.Merged(model.Transitions(s)) {
			if j, ok := b.Boundary.Of(tr.To); ok {
				b.R10.Inc(i, j, tr.Rate)
			}
		}
	}

	var err error
	b.A0, b.A1, b.A2, err = buildA(model, b.B1, ix0, ix1, ix2)
	if err != nil {
		return nil, err
	}
	// Shift-invariance cross-check: rebuild from B2.
	a0b, a1b, a2b, err := buildA(model, ix2.States(), ix1, ix2, ix3)
	if err != nil {
		return nil, err
	}
	const tol = 1e-12
	if !b.A0.AlmostEqual(a0b, tol) || !b.A1.AlmostEqual(a1b, tol) || !b.A2.AlmostEqual(a2b, tol) {
		return nil, fmt.Errorf("qbd: A-blocks differ between levels 1 and 2; model is not level-independent")
	}
	return b, nil
}

// buildA bins the transitions of the states `from` (block q) into down
// (block q−1), local, and up (block q+1) matrices, accumulating the full
// outflow on the local diagonal.
func buildA(model BoundModel, from []statespace.State, down, local, up *statespace.Index) (a0, a1, a2 *mat.Dense, err error) {
	m := len(from)
	a0 = mat.NewDense(m, m)
	a1 = mat.NewDense(m, m)
	a2 = mat.NewDense(m, m)
	for i, s := range from {
		for _, tr := range sqd.Merged(model.Transitions(s)) {
			if tr.To.Equal(s) {
				continue
			}
			if j, ok := local.Of(tr.To); ok {
				a1.Inc(i, j, tr.Rate)
			} else if j, ok := up.Of(tr.To); ok {
				a0.Inc(i, j, tr.Rate)
			} else if j, ok := down.Of(tr.To); ok {
				a2.Inc(i, j, tr.Rate)
			} else {
				return nil, nil, nil, fmt.Errorf("qbd: transition %v → %v escapes the three-block window", s, tr.To)
			}
			a1.Inc(i, i, -tr.Rate)
		}
	}
	return a0, a1, a2, nil
}
