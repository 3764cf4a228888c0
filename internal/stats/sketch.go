package stats

import (
	"fmt"
	"math"
)

// Sketch is a DDSketch-style quantile sketch with a relative-error
// guarantee: every quantile estimate q̂ satisfies |q̂ − q| ≤ α·q for the
// configured accuracy α. Observations land in log-spaced buckets — bucket
// i covers (γ^(i−1), γ^i] with γ = (1+α)/(1−α) — so the state needed for
// accurate p99/p999 is a few KB regardless of the observation range or
// stream length, with no range to configure and nothing clipped.
//
// The sketch is exactly mergeable: Merge folds another sketch bucket by
// bucket, and because collapsing is canonical (see below) the merged
// state is bit-for-bit the state a single sketch would have reached
// observing the union of both streams, in any order. That is the property
// the simulator's replication pooling (internal/engine) and the live
// recorder's shard pooling (internal/lb) lean on: shard-merged and
// whole-stream tails are the same numbers, not approximately so.
//
// Bounded memory under collapsing. Buckets live in a power-of-two ring
// (budget slots, slot = index & mask) holding the contiguous index window
// [lo, hi]. When an observation would widen the window past the budget,
// every bucket below the cutoff c = hi − budget + 1 is folded into bucket
// c: the lowest buckets lose resolution (their values are reported as
// ≈γ^c, an over-estimate of the smallest sojourns) while the upper tail —
// the part the repo reports — keeps its full α guarantee. The cutoff
// depends only on the largest index ever seen, so the final state is a
// pure function of the observed multiset: the reason merge stays exact
// even when shards collapsed at different times. Clamped reports whether
// any fold happened. With the default α = 1% and budget = 1024 the window
// spans a ratio of γ^1024 ≈ 8·10⁸ between smallest and largest resolvable
// sojourn — collapsing never triggers in realistic runs; it is the
// worst-case memory bound, not an expected mode.
//
// Values below sketchMinValue (and exact zeros) are counted in a separate
// zero bucket. Negative and NaN observations panic.
// A Sketch is not safe for concurrent use; accumulate per goroutine and
// Merge, exactly like Stream.
type Sketch struct {
	alpha   float64
	gamma   float64
	invLogG float64 // 1 / ln γ, for the index map
	valCoef float64 // 2γ⁰/(γ+1): bucket i estimates valCoef·γ^i

	counts []int64 // ring over bucket indexes; len is a power of two
	mask   int     // len(counts) − 1
	lo, hi int     // inclusive index window; valid iff posN > 0

	posN    int64 // observations in counts (excludes the zero bucket)
	zero    int64 // observations below sketchMinValue
	n       int64 // total observations
	max     float64
	clamped bool // some bucket was ever folded into the cutoff
}

// sketchMinValue is the smallest distinguishable observation; anything
// smaller counts as zero. 1e-12 mean service times is far below any
// measurable sojourn.
const sketchMinValue = 1e-12

// Default sketch configuration shared by the simulator and the live
// recorder: 1% relative error, 1024 buckets ≈ 8 KB of counters.
const (
	DefaultAlpha        = 0.01
	DefaultSketchBudget = 1024
)

// NewSketch creates a sketch with relative accuracy alpha and at most
// budget buckets (rounded up to a power of two for the ring store).
func NewSketch(alpha float64, budget int) *Sketch {
	if !(alpha > 0 && alpha < 1) || budget < 2 {
		panic(fmt.Sprintf("stats: invalid sketch α=%v budget=%d", alpha, budget))
	}
	b := 1
	for b < budget {
		b <<= 1
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		invLogG: 1 / math.Log(gamma),
		valCoef: 2 / (gamma + 1),
		counts:  make([]int64, b),
		mask:    b - 1,
	}
}

// Add records one observation; negative values and NaN panic (sojourns
// can't be). This is the per-departure accumulator of the event loop.
//
//finitelb:hotpath
func (s *Sketch) Add(x float64) {
	if !(x >= 0) {
		s.badObservation(x)
	}
	s.n++
	if x > s.max {
		s.max = x
	}
	if x < sketchMinValue {
		s.zero++
		return
	}
	s.addCount(int(math.Ceil(math.Log(x)*s.invLogG)), 1)
}

// badObservation is the cold panic exit, kept out of Add so the hot path
// stays fmt-free (finitelint hotpath).
func (s *Sketch) badObservation(x float64) {
	panic(fmt.Sprintf("stats: invalid sketch observation %v", x))
}

// addCount books cnt observations into bucket idx, maintaining the window
// invariants: counts holds exactly [lo, hi], every slot outside is zero,
// counts[lo] > 0 and counts[hi] > 0, and hi − lo < len(counts). Shared by
// Add and Merge so both apply the identical canonical collapse rule.
//
//finitelb:hotpath
func (s *Sketch) addCount(idx int, cnt int64) {
	switch {
	case s.posN == 0:
		s.lo, s.hi = idx, idx
	case idx > s.hi:
		if idx-s.lo+1 > len(s.counts) {
			s.collapse(idx - len(s.counts) + 1)
		}
		s.hi = idx
	case idx < s.lo:
		if c := s.hi - len(s.counts) + 1; idx < c {
			// Below the canonical cutoff for the current hi: the value is
			// recorded at the cutoff bucket, same as if it had been
			// collapsed there.
			idx = c
			s.clamped = true
		}
		if idx < s.lo {
			s.lo = idx
		}
	}
	s.counts[idx&s.mask] += cnt
	s.posN += cnt
}

// collapse folds every bucket below newLo into bucket newLo. Slots vacated
// here are exactly the slots the subsequent window extension aliases, so
// the "outside the window is zero" invariant survives without a full ring
// sweep.
//
//finitelb:hotpath
func (s *Sketch) collapse(newLo int) {
	var sum int64
	for j := s.lo; j < newLo && j <= s.hi; j++ {
		sum += s.counts[j&s.mask]
		s.counts[j&s.mask] = 0
	}
	if newLo > s.hi {
		s.hi = newLo
	}
	s.counts[newLo&s.mask] += sum
	s.lo = newLo
	s.clamped = true
}

// Merge folds another sketch into s. Both must share one configuration
// (accuracy and budget). Because the collapse rule is canonical, the
// result is bit-identical to a single sketch that observed both streams —
// in any merge order, even when the shards collapsed independently.
//
//finitelb:hotpath
func (s *Sketch) Merge(o *Sketch) {
	if o.gamma != s.gamma || len(o.counts) != len(s.counts) {
		s.mismatch(o)
	}
	s.n += o.n
	s.zero += o.zero
	if o.max > s.max {
		s.max = o.max
	}
	if o.clamped {
		s.clamped = true
	}
	if o.posN == 0 {
		return
	}
	for j := o.lo; j <= o.hi; j++ {
		if c := o.counts[j&o.mask]; c != 0 {
			s.addCount(j, c)
		}
	}
}

// mismatch is Merge's cold panic exit (finitelint hotpath).
func (s *Sketch) mismatch(o *Sketch) {
	panic(fmt.Sprintf("stats: merging mismatched sketches α=%v×%d and α=%v×%d",
		s.alpha, len(s.counts), o.alpha, len(o.counts)))
}

// N returns the number of observations.
func (s *Sketch) N() int64 { return s.n }

// Max returns the largest observation.
func (s *Sketch) Max() float64 { return s.max }

// Alpha returns the configured relative accuracy.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Clamped reports whether the bucket budget ever forced low buckets to
// collapse: quantiles that fall in the collapsed region are reported at
// the cutoff (an upper bound); the upper tail keeps the α guarantee.
func (s *Sketch) Clamped() bool { return s.clamped }

// StateBytes returns the approximate in-memory footprint of the sketch —
// the counter ring plus the fixed header.
func (s *Sketch) StateBytes() int { return 8*len(s.counts) + 96 }

// Quantile returns the q-quantile with relative error at most α: the
// estimate is the log-midpoint 2γ^i/(γ+1) of the containing bucket,
// clamped to the observed maximum.
func (s *Sketch) Quantile(q float64) float64 {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("stats: quantile level %v outside (0,1)", q))
	}
	if s.n == 0 {
		return 0
	}
	target := q * float64(s.n)
	cum := float64(s.zero)
	if s.zero > 0 && cum >= target {
		return 0
	}
	for i := s.lo; i <= s.hi; i++ {
		c := s.counts[i&s.mask]
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum >= target {
			if v := s.valCoef * math.Pow(s.gamma, float64(i)); v < s.max {
				return v
			}
			return s.max
		}
	}
	return s.max
}

// DiffQuantile returns the q-quantile of the observations recorded
// between the snapshot prev and the current state — the windowed tail
// behind cmd/lbd's SLO-guarded load shedding, where successive
// Recorder.TailSketch snapshots difference into a per-window p99
// without resetting the lifetime accumulator. Differencing is exact
// because the sketch is a pure function of the observed multiset:
// subtracting prev's counts bucket-wise leaves precisely the window's
// counts, with prev's buckets below the current collapse cutoff folded
// into the cutoff bucket (where canonical collapsing moved them). prev
// must be an earlier snapshot of this same stream with the same
// configuration; nil prev means "since the beginning". The bool is
// false when the window holds no observations.
func (s *Sketch) DiffQuantile(prev *Sketch, q float64) (float64, bool) {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("stats: quantile level %v outside (0,1)", q))
	}
	if prev == nil {
		return s.Quantile(q), s.n > 0
	}
	if prev.gamma != s.gamma || len(prev.counts) != len(s.counts) {
		s.mismatch(prev)
	}
	dn := s.n - prev.n
	if dn <= 0 {
		return 0, false
	}
	target := q * float64(dn)
	cum := float64(s.zero - prev.zero)
	if cum >= target && s.zero > prev.zero {
		return 0, true
	}
	// Counts prev recorded below the current window were folded into
	// s.lo by a collapse after the snapshot; subtract them there.
	var prevBelow int64
	if prev.posN > 0 {
		for j := prev.lo; j < s.lo && j <= prev.hi; j++ {
			prevBelow += prev.counts[j&prev.mask]
		}
	}
	for i := s.lo; i <= s.hi && s.posN > 0; i++ {
		c := s.counts[i&s.mask]
		if prev.posN > 0 && i >= prev.lo && i <= prev.hi {
			c -= prev.counts[i&prev.mask]
		}
		if i == s.lo {
			c -= prevBelow
		}
		if c <= 0 {
			continue
		}
		cum += float64(c)
		if cum >= target {
			// s.max is the lifetime maximum — an upper clamp for the
			// window too, so the estimate stays conservative.
			if v := s.valCoef * math.Pow(s.gamma, float64(i)); v < s.max {
				return v, true
			}
			return s.max, true
		}
	}
	return s.max, true
}

// Tail returns the empirical P(X > x), over-counting by at most the
// partial bucket containing x (a relative slack of α in x).
func (s *Sketch) Tail(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	if x < sketchMinValue {
		return float64(s.posN) / float64(s.n)
	}
	if s.posN == 0 {
		return 0
	}
	// Buckets strictly above k hold only values > γ^k ≥ values > x.
	k := int(math.Floor(math.Log(x) * s.invLogG))
	start := k + 1
	if start < s.lo {
		start = s.lo
	}
	var above int64
	for j := start; j <= s.hi; j++ {
		above += s.counts[j&s.mask]
	}
	return float64(above) / float64(s.n)
}

// TailBucket is one cumulative bucket of a Prometheus-style exposition:
// Count observations were ≤ LE.
type TailBucket struct {
	LE    float64
	Count int64
}

// CumulativeBuckets coarsens the sketch into at most max cumulative
// buckets at exact γ-power boundaries — counts are exact (every value in
// the folded buckets is ≤ the boundary), only the boundary spacing is
// coarsened. Suitable directly as a native Prometheus histogram; the
// caller appends the +Inf bucket with the total count. Returns nil when
// no positive observations were recorded.
func (s *Sketch) CumulativeBuckets(max int) []TailBucket {
	if s.posN == 0 || max < 1 {
		return nil
	}
	span := s.hi - s.lo + 1
	stride := (span + max - 1) / max
	out := make([]TailBucket, 0, (span+stride-1)/stride)
	cum := s.zero
	for j := s.lo; j <= s.hi; j += stride {
		top := j + stride - 1
		if top > s.hi {
			top = s.hi
		}
		for i := j; i <= top; i++ {
			cum += s.counts[i&s.mask]
		}
		out = append(out, TailBucket{LE: math.Pow(s.gamma, float64(top)), Count: cum})
	}
	return out
}
