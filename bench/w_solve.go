package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"finitelb"
	"finitelb/internal/engine"
	"finitelb/internal/markov"
	"finitelb/internal/mat"
	"finitelb/internal/qbd"
	"finitelb/internal/sqd"
)

// solveCell is one analytic solve: DelayBounds(T) of an SQ(2) system.
type solveCell struct {
	N, T int
	Rho  float64
}

func (c solveCell) key() string { return fmt.Sprintf("n%d_t%d_rho%02.0f", c.N, c.T, 100*c.Rho) }

// gridCells is Fig. 10's analytic series: four (N, T) shapes, blocks of 6
// to 126 states, over nineteen utilisations. Eight of the 76 cells have no
// stable upper bound; ErrUnstable is their expected result.
var gridShapes = [][2]int{{3, 2}, {3, 3}, {6, 3}, {6, 4}} // (N, T)

func gridCells() []solveCell {
	var cells []solveCell
	for _, nt := range gridShapes {
		for i := 1; i <= 19; i++ {
			cells = append(cells, solveCell{N: nt[0], T: nt[1], Rho: float64(i) * 0.05})
		}
	}
	return cells
}

// bigCell is lbd's startup point: unstable at T=3, block 330 at T=4.
var bigCell = solveCell{N: 8, T: 4, Rho: .85}

// solved is a solve's outcome in the form goldens/solve.json pins.
type solved struct {
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
	Unstable bool    `json:"unstable,omitempty"`
	// P99Lower and P99Upper are pinned for the big cell only.
	P99Lower float64 `json:"p99_lower,omitempty"`
	P99Upper float64 `json:"p99_upper,omitempty"`
}

func solveCellBounds(c solveCell) (solved, error) {
	sys, err := finitelb.NewSystem(c.N, 2, c.Rho)
	if err != nil {
		return solved{}, err
	}
	b, err := sys.DelayBounds(c.T)
	if errors.Is(err, finitelb.ErrUnstable) {
		return solved{Unstable: true}, nil
	}
	if err != nil {
		return solved{}, err
	}
	return solved{Lower: b.Lower.MeanDelay, Upper: b.Upper.MeanDelay}, nil
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checkSolved is the solver's correctness gate: the bracket is ordered and
// both sides sit within 1e-9 relative of the pinned values.
func checkSolved(key string, got solved, pinned map[string]solved) error {
	want, ok := pinned[key]
	if !ok {
		return fmt.Errorf("%s: no pinned value (run -update-goldens)", key)
	}
	if got.Unstable != want.Unstable {
		return fmt.Errorf("%s: unstable = %v, pinned %v", key, got.Unstable, want.Unstable)
	}
	if got.Unstable {
		return nil
	}
	if !(got.Lower <= got.Upper) {
		return fmt.Errorf("%s: lower %v above upper %v", key, got.Lower, got.Upper)
	}
	if !(got.P99Lower <= got.P99Upper) {
		return fmt.Errorf("%s: p99 lower %v above upper %v", key, got.P99Lower, got.P99Upper)
	}
	for _, v := range [][2]float64{{got.Lower, want.Lower}, {got.Upper, want.Upper}, {got.P99Lower, want.P99Lower}, {got.P99Upper, want.P99Upper}} {
		if !relClose(v[0], v[1]) {
			return fmt.Errorf("%s: got %.15g, pinned %.15g", key, v[0], v[1])
		}
	}
	return nil
}

const solveSetups = 5

// solveWarm is set-up for both solver workloads: build the systems and
// solve each grid shape once, so the solver's code and allocator are warm.
// (A single small solve took 7 ms, too little to repeat: its median moved
// by 30% between sets of runs.)
func solveWarm(cells []solveCell) error {
	for _, c := range cells {
		if _, err := finitelb.NewSystem(c.N, 2, c.Rho); err != nil {
			return err
		}
	}
	for _, nt := range gridShapes {
		if _, err := solveCellBounds(solveCell{N: nt[0], T: nt[1], Rho: .5}); err != nil {
			return err
		}
	}
	return nil
}

// runSolveGrid: many small solves.
func runSolveGrid(r *run) error {
	cells := gridCells()
	// The seed fixes the order the cells are solved in; the cells
	// themselves are the paper's grid.
	rand.New(rand.NewPCG(r.seed, 5)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for rep := 0; rep < solveSetups; rep++ {
		if err := r.setup(func() error { return solveWarm(cells) }); err != nil {
			return err
		}
	}

	var passMS, tracedPassMS, solveUS, midUS []float64
	unstable := 0
	budget := newPassBudget(r.seconds, 3)
	for pass := 0; budget.next(); pass++ {
		recording := r.traced && pass%2 == 0
		r.tr.setRecording(recording)
		unstable = 0
		took := r.tr.timed(0, "solve.grid_pass", func(passID uint32) {
			for _, c := range cells {
				var got solved
				var err error
				d := r.tr.timed(passID, "finitelb.DelayBounds", func(uint32) { got, err = solveCellBounds(c) })
				solveUS = append(solveUS, float64(d.Nanoseconds())/1e3)
				if c.N == 6 && c.T == 3 && !got.Unstable {
					midUS = append(midUS, float64(d.Nanoseconds())/1e3)
				}
				r.ops(1, 0)
				if err == nil {
					err = checkSolved(c.key(), got, goldens.Solve)
				}
				if err != nil {
					r.ops(0, 1)
					r.problem("%v", err)
				}
				if got.Unstable {
					unstable++
				}
			}
		})
		if recording {
			tracedPassMS = append(tracedPassMS, float64(took.Microseconds())/1e3)
		} else {
			passMS = append(passMS, float64(took.Microseconds())/1e3)
		}
	}
	r.tr.setRecording(r.traced)
	ps := summarize(passMS)
	r.set("ops_per_s", 1e3*float64(len(cells))/ps.Median)
	r.detail["ops_per_s"] = fmt.Sprintf("solves per second; median pass of %d solves %.1f ms (IQR %.2f%% n=%d)", len(cells), ps.Median, 100*ps.IQR/ps.Median, ps.N)
	// The grid is four size classes a decade apart, so the median over
	// all solves falls in the gap between two classes and jumps with
	// either; the typical solve is taken inside one class instead.
	r.set("latency_p50_us", median(midUS))
	r.detail["latency_p50_us"] = fmt.Sprintf("median of %d stable block-56 (N=6, T=3) solves", len(midUS))
	tv, tp := tail(solveUS)
	r.set("latency_tail_us", tv)
	r.detail["latency_tail_us"] = fmt.Sprintf("p%g of %d solves", tp, len(solveUS))
	r.set("solve.unstable_cells", float64(unstable))
	if r.traced {
		r.set("harness.trace_overhead_pct.solve_grid", 100*(median(tracedPassMS)-ps.Median)/ps.Median)
		if err := gridLayerProbes(r, cells); err != nil {
			return err
		}
	}
	r.set("harness.peak_rss_mb", selfRSSMB())
	return nil
}

// msOf runs fn in a span, three times, and returns the median in ms.
func msOf(r *run, name string, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		var err error
		d := r.tr.timed(0, name, func(uint32) { err = fn() })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// qbdPipelineProbes peels one upper-bound solve into its stages on the
// given model: NewBlocks → LogReduction → RateMatrix.
func qbdPipelineProbes(r *run, c solveCell, suffix string) (blocks *qbd.Blocks, err error) {
	model := &sqd.UpperBound{P: sqd.BoundParams{Params: sqd.Params{N: c.N, D: 2, Rho: c.Rho}, T: c.T}}
	ms, err := msOf(r, "qbd.NewBlocks."+suffix, func() (err error) { blocks, err = qbd.NewBlocks(model); return })
	if err != nil {
		return nil, err
	}
	r.set("qbd.newblocks_ms."+suffix, ms)
	var g *mat.Dense
	var iters int
	ms, err = msOf(r, "qbd.LogReduction."+suffix, func() (err error) {
		g, iters, err = qbd.LogReduction(blocks.A0, blocks.A1, blocks.A2, 1e-12)
		return
	})
	if err != nil {
		return nil, err
	}
	r.set("qbd.logreduction_ms."+suffix, ms)
	r.set("qbd.logreduction_iters."+suffix, float64(iters))
	ms, err = msOf(r, "qbd.RateMatrix."+suffix, func() error {
		_, err := qbd.RateMatrix(blocks.A0, blocks.A1, blocks.A2, g)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("qbd.ratematrix_ms."+suffix, ms)
	return blocks, nil
}

func gridLayerProbes(r *run, cells []solveCell) error {
	if _, err := qbdPipelineProbes(r, solveCell{N: 6, T: 3, Rho: .7}, "b56"); err != nil {
		return err
	}
	ms, err := msOf(r, "markov.SolveExact", func() error {
		_, err := markov.SolveExact(sqd.Params{N: 3, D: 2, Rho: .8}, markov.ExactOptions{QueueCap: 25})
		return err
	})
	if err != nil {
		return err
	}
	r.set("markov.solve_exact_ms", ms)

	// The sweep commands spread cells over an engine pool; on two shared
	// cores the speed-up is reported, not gated.
	wall := func(workers int) (time.Duration, error) {
		var err error
		d := r.tr.timed(0, fmt.Sprintf("engine.Collect.w%d", workers), func(uint32) {
			_, err = engine.Collect(engine.New(workers), len(cells), func(i int) (solved, error) { return solveCellBounds(cells[i]) })
		})
		return d, err
	}
	one, err := wall(1)
	if err != nil {
		return err
	}
	two, err := wall(2)
	if err != nil {
		return err
	}
	r.set("engine.collect_speedup_w2", one.Seconds()/two.Seconds())
	return nil
}

// bigWalk is what lbd does at startup for (8, 2, 0.85): T=3 has no stable
// upper bound, T=4 does, then the p99 bracket at T=4.
func bigWalk(r *run, parent uint32) (got solved, unstable int, err error) {
	sys, err := finitelb.NewSystem(bigCell.N, 2, bigCell.Rho)
	if err != nil {
		return got, 0, err
	}
	for t := 3; t <= bigCell.T; t++ {
		var b finitelb.Bounds
		r.tr.timed(parent, fmt.Sprintf("finitelb.DelayBounds.T%d", t), func(uint32) { b, err = sys.DelayBounds(t) })
		if errors.Is(err, finitelb.ErrUnstable) {
			unstable++
			continue
		}
		if err != nil {
			return got, unstable, err
		}
		got.Lower, got.Upper = b.Lower.MeanDelay, b.Upper.MeanDelay
		r.tr.timed(parent, "finitelb.DelayDistributionBracket", func(uint32) {
			var br *finitelb.DelayBracket
			if br, err = sys.DelayDistributionBracket(t); err == nil {
				got.P99Lower, got.P99Upper = br.Quantile(.99)
			}
		})
		return got, unstable, err
	}
	return got, unstable, fmt.Errorf("no stable bracket by T=%d", bigCell.T)
}

// runSolveBig: one large solve, repeated.
func runSolveBig(r *run) error {
	for rep := 0; rep < solveSetups; rep++ {
		if err := r.setup(func() error { return solveWarm([]solveCell{bigCell}) }); err != nil {
			return err
		}
	}
	var walkS, tracedWalkS []float64
	unstable := 0
	budget := newPassBudget(r.seconds, 2)
	for pass := 0; budget.next(); pass++ {
		recording := r.traced && pass%2 == 0
		r.tr.setRecording(recording)
		var got solved
		var err error
		took := r.tr.timed(0, "solve.big_walk", func(id uint32) { got, unstable, err = bigWalk(r, id) })
		r.ops(1, 0)
		if err == nil {
			err = checkSolved(bigCell.key(), got, goldens.Solve)
		}
		if err != nil {
			r.ops(0, 1)
			r.problem("%v", err)
		}
		if recording {
			tracedWalkS = append(tracedWalkS, took.Seconds())
		} else {
			walkS = append(walkS, took.Seconds())
		}
	}
	r.tr.setRecording(r.traced)
	ws := summarize(walkS)
	r.set("ops_per_s", 1/ws.Median)
	r.detail["ops_per_s"] = fmt.Sprintf("walks per second; median walk %.3f s (IQR %.2f%% n=%d)", ws.Median, 100*ws.IQR/ws.Median, ws.N)
	r.set("latency_p50_us", ws.Median*1e6)
	r.set("latency_tail_us", percentile(walkS, 100)*1e6)
	r.detail["latency_tail_us"] = "slowest walk"
	r.set("solve.unstable_cells", float64(unstable))
	if r.traced {
		r.set("harness.trace_overhead_pct.solve_big", 100*(median(tracedWalkS)-ws.Median)/ws.Median)
		if err := bigLayerProbes(r); err != nil {
			return err
		}
	}
	r.set("harness.peak_rss_mb", selfRSSMB())
	return nil
}

func bigLayerProbes(r *run) error {
	blocks, err := qbdPipelineProbes(r, bigCell, "b330")
	if err != nil {
		return err
	}
	bp := sqd.BoundParams{Params: sqd.Params{N: bigCell.N, D: 2, Rho: bigCell.Rho}, T: bigCell.T}
	var upper *qbd.Solution
	for _, s := range []struct {
		metric string
		solve  func() (*qbd.Solution, error)
	}{
		{"qbd.solve_ms.lower_improved.b330", func() (*qbd.Solution, error) {
			return qbd.Solve(&sqd.LowerBound{P: bp}, qbd.Options{ImprovedLB: true})
		}},
		{"qbd.solve_ms.lower_mg.b330", func() (*qbd.Solution, error) { return qbd.Solve(&sqd.LowerBound{P: bp}, qbd.Options{}) }},
		{"qbd.solve_ms.upper.b330", func() (*qbd.Solution, error) { return qbd.Solve(&sqd.UpperBound{P: bp}, qbd.Options{}) }},
	} {
		var err error
		d := r.tr.timed(0, s.metric, func(uint32) { upper, err = s.solve() })
		if err != nil {
			return fmt.Errorf("%s: %w", s.metric, err)
		}
		r.set(s.metric, float64(d.Nanoseconds())/1e6)
	}
	d := r.tr.timed(0, "qbd.JoinDistribution.b330", func(uint32) { _, err = upper.JoinDistribution() })
	if err != nil {
		return fmt.Errorf("JoinDistribution: %w", err)
	}
	r.set("qbd.joindist_ms.b330", float64(d.Nanoseconds())/1e6)

	// The kernels under the logarithmic reduction at the model's block
	// size: a full product (2·m³ floating-point operations; MulTo skips
	// zeros of its left operand, so the operand is a dense matrix, not one
	// of the model's sparse blocks) and the inversion of the local block
	// A1 that starts the reduction.
	m := blocks.BlockSize()
	dense, dst := mat.NewDense(m, m), mat.NewDense(m, m)
	rng := rand.New(rand.NewPCG(r.seed, 6))
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			dense.Set(i, j, rng.Float64())
		}
	}
	ms, err := msOf(r, "mat.MulTo.b330", func() error { dense.MulTo(dst, dense); return nil })
	if err != nil {
		return err
	}
	r.set("mat.multo_ms.b330", ms)
	r.set("mat.multo_gflops.b330", 2*math.Pow(float64(m), 3)/(ms*1e6))
	ms, err = msOf(r, "mat.Inverse.b330", func() error { _, err := mat.Inverse(blocks.A1); return err })
	if err != nil {
		return err
	}
	r.set("mat.inverse_ms.b330", ms)
	return nil
}
