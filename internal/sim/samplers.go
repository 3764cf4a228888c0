package sim

import (
	"math/rand/v2"

	"finitelb/internal/frand"
	"finitelb/internal/workload"
)

// The typed event loop takes the per-event draw pair — interarrival and
// service requirement — off the workload interfaces by re-deriving, for
// each built-in workload law, a concrete sampler over the concrete frand
// generator. Each sampler must
// consume exactly the draws its internal/workload counterpart consumes, in
// the same order, with the same arithmetic: TestSamplersMatchWorkload pins
// every law's sequence against the interface implementation, and the loop
// equivalence tests pin whole runs. The samplers are value structs, but Go
// stencils a generic function per GC shape, not per type: samplers of one
// shape (poissonArr and constArr are one float64, expSvc and detSvc are
// empty) share an instantiation, and in it every draw is an indirect call
// through the instantiation's dictionary. What the samplers buy is the
// body behind that call — straight-line arithmetic on the concrete frand
// generator, with no rand.Source or workload interface in between. A
// user-supplied law rides the same loop behind ifaceArr/ifaceSvc, one
// more instantiation whose draws go through the workload interface.

// arrSampler is the generic constraint for interarrival samplers.
type arrSampler interface {
	next(fr *frand.RNG) float64
}

// svcSampler is the generic constraint for service-requirement samplers.
type svcSampler interface {
	sample(fr *frand.RNG) float64
}

// poissonArr mirrors workload.Poisson's source: one Exp draw per arrival.
type poissonArr struct{ rate float64 }

func (a poissonArr) next(fr *frand.RNG) float64 { return fr.ExpFloat64() / a.rate }

// constArr mirrors workload.DeterministicArrivals: fixed gap, no draws.
type constArr struct{ gap float64 }

func (a constArr) next(*frand.RNG) float64 { return a.gap }

// erlangArr mirrors workload.ErlangArrivals: K Exp draws per arrival.
type erlangArr struct {
	k         int
	phaseRate float64
}

func (a erlangArr) next(fr *frand.RNG) float64 {
	sum := 0.0
	for i := 0; i < a.k; i++ {
		sum += fr.ExpFloat64()
	}
	return sum / a.phaseRate
}

// hyperArr mirrors workload.HyperExp: one uniform branch draw, one Exp.
type hyperArr struct{ p, l1, l2 float64 }

func (a hyperArr) next(fr *frand.RNG) float64 {
	if fr.Float64() < a.p {
		return fr.ExpFloat64() / a.l1
	}
	return fr.ExpFloat64() / a.l2
}

// expSvc mirrors workload.Exponential: one Exp draw.
type expSvc struct{}

func (expSvc) sample(fr *frand.RNG) float64 { return fr.ExpFloat64() }

// detSvc mirrors workload.DeterministicService: no draws.
type detSvc struct{}

func (detSvc) sample(*frand.RNG) float64 { return 1 }

// erlangSvc mirrors workload.ErlangService: K Exp draws.
type erlangSvc struct {
	k  int
	kf float64
}

func (s erlangSvc) sample(fr *frand.RNG) float64 {
	sum := 0.0
	for i := 0; i < s.k; i++ {
		sum += fr.ExpFloat64()
	}
	return sum / s.kf
}

// paretoSvc mirrors workload.BoundedPareto: one uniform draw through the
// law's own inverse CDF, so the two cannot drift apart numerically.
type paretoSvc struct{ p workload.BoundedPareto }

func (s paretoSvc) sample(fr *frand.RNG) float64 { return s.p.Quantile(fr.Float64()) }

// ifaceArr adapts a user-supplied arrival process: interarrivals come from
// its workload.Source, drawing through the loop's own generator (std wraps
// it), so a delegating implementation stays on the built-in's trajectory.
type ifaceArr struct {
	src workload.Source
	std *rand.Rand
}

func (a ifaceArr) next(*frand.RNG) float64 { return a.src.Next(a.std) }

// adapterArr builds the adapter for w's arrival process.
func (st *loopState) adapterArr(w wiring) ifaceArr {
	src, err := w.arrival.NewSource(w.rate)
	if err != nil {
		panic("sim: unresolved wiring: " + err.Error())
	}
	return ifaceArr{src: src, std: st.std}
}

// ifaceSvc adapts a user-supplied service law the same way.
type ifaceSvc struct {
	svc workload.Service
	std *rand.Rand
}

func (s ifaceSvc) sample(*frand.RNG) float64 { return s.svc.Sample(s.std) }
