package main

import (
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestCheckSolved(t *testing.T) {
	pinned := map[string]solved{
		"a": {Lower: 1.5, Upper: 2.5},
		"u": {Unstable: true},
		"b": {Lower: 2, Upper: 3, P99Lower: 8, P99Upper: 13},
	}
	for _, c := range []struct {
		name string
		key  string
		got  solved
		bad  string // substring of the expected error, "" = passes
	}{
		{"exact", "a", solved{Lower: 1.5, Upper: 2.5}, ""},
		{"last-digit noise", "a", solved{Lower: 1.5 * (1 + 1e-12), Upper: 2.5}, ""},
		{"drifted", "a", solved{Lower: 1.5 * (1 + 1e-8), Upper: 2.5}, "pinned"},
		{"crossed", "a", solved{Lower: 2.6, Upper: 2.5}, "above upper"},
		{"expected unstable", "u", solved{Unstable: true}, ""},
		{"became stable", "u", solved{Lower: 1, Upper: 2}, "unstable"},
		{"became unstable", "a", solved{Unstable: true}, "unstable"},
		{"tail drifted", "b", solved{Lower: 2, Upper: 3, P99Lower: 8, P99Upper: 13.1}, "pinned"},
		{"not pinned", "zz", solved{Lower: 1, Upper: 2}, "no pinned value"},
	} {
		err := checkSolved(c.key, c.got, pinned)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: unexpected %v", c.name, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.bad)
		}
	}
}

func TestCheckSimRow(t *testing.T) {
	bracket := func(n, d int, rho float64) (float64, float64, error) { return 1.8, 2.0, nil }
	cell := simCell{Name: "c", N: 10, D: 2, Rho: .75, Jobs: 1000, ModelD: 2}
	ok := simRow{Name: "c", Jobs: 1000, MeanDelay: 1.9, HalfWidth: 0.01}
	if err := checkSimRow(cell, ok, bracket); err != nil {
		t.Errorf("inside the bracket: %v", err)
	}
	for name, row := range map[string]simRow{
		"above the bracket":   {Name: "c", Jobs: 1000, MeanDelay: 2.1, HalfWidth: 0.01},
		"below the bracket":   {Name: "c", Jobs: 1000, MeanDelay: 1.7, HalfWidth: 0.01},
		"infinite half-width": {Name: "c", Jobs: 1000, MeanDelay: 1.9, HalfWidth: math.Inf(1)},
		"NaN half-width":      {Name: "c", Jobs: 1000, MeanDelay: 1.9, HalfWidth: math.NaN()},
		"short run":           {Name: "c", Jobs: 999, MeanDelay: 1.9, HalfWidth: 0.01},
	} {
		if err := checkSimRow(cell, row, bracket); err == nil {
			t.Errorf("%s: passed the check", name)
		}
	}
	// Three half-widths of slack, and no bracket check off the model or
	// at large N.
	if err := checkSimRow(cell, simRow{Name: "c", Jobs: 1000, MeanDelay: 2.02, HalfWidth: 0.01}, bracket); err != nil {
		t.Errorf("within slack: %v", err)
	}
	off := cell
	off.ModelD = 0
	if err := checkSimRow(off, simRow{Name: "c", Jobs: 1000, MeanDelay: 9, HalfWidth: 0.01}, bracket); err != nil {
		t.Errorf("off-model cell was bracket-checked: %v", err)
	}
	failing := func(int, int, float64) (float64, float64, error) { return 0, 0, errors.New("boom") }
	if err := checkSimRow(cell, ok, failing); err == nil {
		t.Error("a bracket that cannot be computed must fail the cell")
	}
}

func TestCountMismatches(t *testing.T) {
	golden := []simRow{{Name: "a", Jobs: 10, MeanDelay: 1.5}, {Name: "b", Jobs: 10, MeanDelay: 2.5}}
	if n := countMismatches(golden, golden); n != 0 {
		t.Errorf("identical rows: %d mismatches", n)
	}
	moved := []simRow{{Name: "a", Jobs: 10, MeanDelay: math.Nextafter(1.5, 2)}, {Name: "c", Jobs: 10}}
	if n := countMismatches(moved, golden); n != 2 {
		t.Errorf("one ulp off and one unpinned cell: %d mismatches, want 2", n)
	}
}

// A failed check must reach the exit code: finish marks the run incorrect,
// and main exits non-zero on an incorrect result.
func TestFailedCheckMakesTheRunIncorrect(t *testing.T) {
	fill := func(r *run) {
		for _, d := range endToEnd {
			r.set(d.Name, 1)
		}
		r.ops(10, 0)
	}
	good := newRun("solve_grid", 1, 1, false, "")
	fill(good)
	if res := good.finish(io.Discard); !res.Correct || exitCode(res) != 0 {
		t.Fatalf("clean run: correct=%v exit=%d problems=%v", res.Correct, exitCode(res), good.problems)
	}

	for name, breakIt := range map[string]func(*run){
		"a failed check":         func(r *run) { r.problem("lower above upper") },
		"a failed operation":     func(r *run) { r.ops(1, 1) },
		"an unmeasured metric":   func(r *run) { delete(r.values, "ops_per_s") },
		"a NaN metric":           func(r *run) { r.set("ops_per_s", math.NaN()) },
		"an unregistered metric": func(r *run) { r.set("no.such_metric", 1) },
	} {
		r := newRun("solve_grid", 1, 1, false, "")
		fill(r)
		breakIt(r)
		if res := r.finish(io.Discard); res.Correct || exitCode(res) == 0 {
			t.Errorf("%s: correct=%v exit=%d, want an incorrect run and a non-zero exit", name, res.Correct, exitCode(res))
		}
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	r := newRun("solve_big", 1, 1, true, "")
	r.ops(1, 0)
	for _, d := range perLayer {
		if slices.Contains(d.On, "solve_big") {
			r.set(d.Name, 2)
		}
	}
	res := r.finish(io.Discard)
	if !res.Correct {
		t.Fatalf("problems: %v", r.problems)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics in the result, want all %d per-layer metrics", len(res.Metrics), len(perLayer))
	}
	if v := res.Metrics["lbd.drain_ms"].Value; v != 0 {
		t.Errorf("a layer this workload does not exercise reads %v, want 0", v)
	}
	if _, ok := res.Metrics["setup_s"]; ok {
		t.Error("a traced result must not carry end-to-end metrics")
	}
}
