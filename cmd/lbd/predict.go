package main

import (
	"sync"

	"finitelb"
	"finitelb/internal/workload"
)

// predicted holds the paper's analytic delay bracket for the farm's
// declared operating point, solved once in the background at startup so
// /metrics can expose model-predicted gauges next to the measured ones.
// The model applies to Poisson arrivals, exponential service, and a
// homogeneous SQ(d) farm; the serve-mode arrival process is whatever the
// clients offer, so the gauges are the prediction *for the declared -rho*,
// the line operators compare their measured mean and p99 against.
type predicted struct {
	mu sync.Mutex
	predictedState
}

// predictedState is the copyable payload under the mutex.
type predictedState struct {
	ready   bool
	failed  string // human-readable reason when no bracket exists
	t       int    // truncation threshold used
	meanLo  float64
	meanHi  float64
	p99Lo   float64
	p99Hi   float64
	tailP99 bool // p99 bracket present (the mean can succeed alone)
}

func (p *predicted) snapshot() (predictedState, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.predictedState, p.ready
}

// maxPredictBlock caps the QBD block size C(N+T−1, T) the startup solve
// will attempt; beyond it the logarithmic reduction is too slow for a
// daemon's background thread.
const maxPredictBlock = 1200

// newPredicted launches the background solve when the configured workload
// is one the paper's bracket covers, and returns nil otherwise (the
// gauges are then simply absent from /metrics).
func newPredicted(pol workload.Policy, svc workload.Service, spd []float64, n int, rho float64) *predicted {
	d, ok := paperModel(pol, svc, spd, n)
	if !ok {
		return nil
	}
	p := &predicted{}
	go p.solve(n, d, rho)
	return p
}

// paperModel reports whether a farm is one the paper's bracket covers —
// SQ(d) with d ≤ N ≤ 16, exponential service and unit speeds (an explicit
// all-ones -speeds is homogeneous) — and its d. It is the one on-model
// test of both modes; load-generator mode also requires Poisson arrivals.
func paperModel(pol workload.Policy, svc workload.Service, spd []float64, n int) (d int, ok bool) {
	sq, isSQD := pol.(workload.SQD)
	if !isSQD || svc.String() != "exponential" || n > 16 || sq.D > n {
		return 0, false
	}
	for _, s := range spd {
		if s != 1 {
			return 0, false
		}
	}
	return sq.D, true
}

func (p *predicted) solve(n, d int, rho float64) {
	fail := func(err error) {
		p.mu.Lock()
		p.failed = err.Error()
		p.ready = true
		p.mu.Unlock()
	}
	sys, err := finitelb.NewSystem(n, d, rho)
	if err != nil {
		fail(err)
		return
	}
	b, t, err := sys.StableBounds(maxPredictBlock)
	if err != nil {
		fail(err)
		return
	}
	br, err := sys.DelayDistributionBracket(t)
	p.mu.Lock()
	p.t = t
	p.meanLo, p.meanHi = b.Lower.MeanDelay, b.Upper.MeanDelay
	if err == nil {
		p.p99Lo, p.p99Hi = br.Quantile(0.99)
		p.tailP99 = true
	}
	p.ready = true
	p.mu.Unlock()
}
