package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the driver applies to the ten values
// of a metric. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the driver's steadiness figure: the distance between the first
// and third quartile as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailLevels are the percentiles a latency tail may be reported at.
var tailLevels = []float64{99, 95, 90}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it, so the reported tail is a measurement and not the
// luck of one or two slow samples. Samples too few for p90 report their
// maximum (p = 100): for a handful of long batch operations the slowest
// one is the tail a user waits for.
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 100
}

// tail returns the value at tailPercentile(len(xs)) and that percentile.
func tail(xs []float64) (v, p float64) {
	p = tailPercentile(len(xs))
	return percentile(xs, p), p
}

// windowStat summarises the per-window (or per-pass) values of one timed
// phase: the reported value is the median window, with the quartile
// distance and the number of windows beside it.
type windowStat struct {
	Median, IQR float64
	N           int
}

func summarize(xs []float64) windowStat {
	if len(xs) == 0 {
		return windowStat{Median: math.NaN(), IQR: math.NaN()}
	}
	return windowStat{Median: median(xs), IQR: percentile(xs, 75) - percentile(xs, 25), N: len(xs)}
}

// geomean of two phase medians: a relative change in either phase moves
// the combined figure by half as much, whichever phase is the faster.
func geomean(a, b float64) float64 { return math.Sqrt(a * b) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
