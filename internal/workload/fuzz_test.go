package workload

import (
	"math"
	"math/rand/v2"
	"testing"
)

// fuzzQueues is a fixed farm view for exercising pickers.
type fuzzQueues struct{ lens []int }

func (q fuzzQueues) N() int        { return len(q.lens) }
func (q fuzzQueues) Len(i int) int { return q.lens[i] }

// FuzzParse drives the three spec parsers plus ParseSpeeds with arbitrary
// strings: parsing must never panic or hang, and whatever it accepts must
// be immediately usable — sources emit finite non-negative interarrivals,
// services sample finite positive times with E[S²] ≥ 1 (Jensen, unit
// mean), pickers stay in range. Seed corpus in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Add("poisson", "exponential", "sqd:2", "1,1,1,1")
	f.Add("deterministic", "det", "jsq", "2x4")
	f.Add("erlang:3", "erlang:k=4", "jiq", "1x2,4x2")
	f.Add("hyperexp:cv2=9", "pareto:alpha=1.5,h=100", "round-robin", "0.5,0.5,2,2")
	f.Add("h2:4", "pareto:2.5", "random", "")
	f.Add("erlang:-1", "pareto:alpha=0", "sqd:d=0", "0")
	f.Add("erlang:99999999999", "pareto:alpha=1", "sq", "1x99999999999")
	f.Add(":::", "=,=", "sqd:d=x", "x1")
	f.Fuzz(func(t *testing.T, arrival, service, policy, speeds string) {
		rng := rand.New(rand.NewPCG(1, 2))
		if a, err := ParseArrival(arrival); err == nil && a != nil {
			src, err := a.NewSource(2.0)
			if err != nil {
				t.Fatalf("ParseArrival(%q) accepted a process NewSource rejects: %v", arrival, err)
			}
			for i := 0; i < 8; i++ {
				if gap := src.Next(rng); !(gap >= 0) || math.IsInf(gap, 1) {
					t.Fatalf("arrival %q: interarrival %v", arrival, gap)
				}
			}
		}
		if s, err := ParseService(service); err == nil && s != nil {
			if err := s.Validate(); err != nil {
				t.Fatalf("ParseService(%q) returned invalid law: %v", service, err)
			}
			if m2 := s.Moment2(); !(m2 >= 1) || math.IsInf(m2, 1) {
				t.Fatalf("service %q: E[S²] = %v < 1 for a unit-mean law", service, m2)
			}
			for i := 0; i < 8; i++ {
				if x := s.Sample(rng); !(x > 0) || math.IsInf(x, 1) {
					t.Fatalf("service %q: sample %v", service, x)
				}
			}
		}
		if p, err := ParsePolicy(policy); err == nil && p != nil {
			if sq, ok := p.(SQD); ok && sq.D == 0 {
				p = SQD{D: 2} // "sqd" defers D to the caller; pick one
			}
			q := fuzzQueues{lens: []int{3, 0, 1, 2}}
			if picker, err := p.NewPicker(q.N()); err == nil {
				for i := 0; i < 8; i++ {
					if id := picker.Pick(rng, q); id < 0 || id >= q.N() {
						t.Fatalf("policy %q picked server %d of %d", policy, id, q.N())
					}
				}
			}
		}
		if sp, err := ParseSpeeds(speeds, 4); err == nil && sp != nil {
			if len(sp) != 4 {
				t.Fatalf("ParseSpeeds(%q, 4) returned %d entries", speeds, len(sp))
			}
			for _, s := range sp {
				if !(s > 0) {
					t.Fatalf("ParseSpeeds(%q) accepted non-positive speed %v", speeds, s)
				}
			}
		}
	})
}

// FuzzParseChurn drives the churn-schedule parser: it must never panic,
// and whatever it accepts is a schedule both engines can run — finite
// nonnegative times in order, finite positive slow factors and stall
// durations — whose canonical rendering parses back to the same events.
func FuzzParseChurn(f *testing.F) {
	f.Add("churn:crash@t=500,restore@t=900")
	f.Add("join@900@s=3,slow@t=100@s=1@f=4,stall@200@d=50,crash@0")
	f.Add("slow@t=1@f=inf,crash@t=inf,stall@t=1@d=nan")
	f.Add("crash@1e400,slow@-0@f=1e-400")
	f.Add("pause@1,resume@@,=@=")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChurn(spec)
		if err != nil || c == nil {
			return
		}
		last := 0.0
		for _, e := range c.Events {
			if !(e.T >= last) || math.IsInf(e.T, 1) {
				t.Fatalf("ParseChurn(%q) accepted event %v at time %v after %v", spec, e, e.T, last)
			}
			last = e.T
			if e.Kind == ChurnSlow && (!(e.Factor > 0) || math.IsInf(e.Factor, 1)) {
				t.Fatalf("ParseChurn(%q) accepted slow factor %v", spec, e.Factor)
			}
			if e.Kind == ChurnStall && (!(e.Dur > 0) || math.IsInf(e.Dur, 1)) {
				t.Fatalf("ParseChurn(%q) accepted stall duration %v", spec, e.Dur)
			}
		}
		again, err := ParseChurn(c.String())
		if err != nil {
			t.Fatalf("ParseChurn(%q) renders as %q, which does not parse: %v", spec, c, err)
		}
		for i, e := range c.Events {
			if again.Events[i] != e {
				t.Fatalf("ParseChurn(%q) event %d = %+v, re-parsed from %q as %+v", spec, i, e, c, again.Events[i])
			}
		}
	})
}
