package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1_000_000, 99}, // capped at p99
		{1000, 99},      // exactly ten beyond p99
		{999, 95},       // 9.99 beyond p99 is not ten
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 100}, // not even p90: report the slowest
		{4, 100},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints; the driver computes the spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got, want := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSummarizeReportsMedianWindow(t *testing.T) {
	// One stalled window must not move the reported value.
	s := summarize([]float64{100, 101, 99, 100, 20, 100})
	if s.Median != 100 || s.N != 6 {
		t.Errorf("summarize = %+v, want median 100 over 6 windows", s)
	}
	if s.IQR < 0 || s.IQR > 2 {
		t.Errorf("IQR = %v, want the spread of the steady windows", s.IQR)
	}
	if e := summarize(nil); !math.IsNaN(e.Median) || e.N != 0 {
		t.Errorf("summarize(nil) = %+v", e)
	}
}

func TestPassBudgetAlwaysRunsTheMinimum(t *testing.T) {
	b := newPassBudget(0, 3)
	n := 0
	for b.next() {
		n++
	}
	if n != 3 {
		t.Errorf("zero-second budget ran %d passes, want the minimum 3", n)
	}
}
