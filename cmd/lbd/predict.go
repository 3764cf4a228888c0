package main

import (
	"errors"
	"fmt"
	"sync"

	"finitelb"
	"finitelb/internal/statespace"
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
	sq, isSQD := pol.(workload.SQD)
	if !isSQD || svc.String() != "exponential" || spd != nil || n > 16 || sq.D > n {
		return nil
	}
	p := &predicted{}
	go p.solve(n, sq.D, rho)
	return p
}

// walkBounds raises T from 3 until the upper-bound chain is stable and
// returns that bracket with its T. Larger T tightens the bracket and
// widens the upper bound's stability region, at block size C(N+T−1, T);
// the walk gives up, with the last instability as the reason, once the
// block would exceed maxBlock.
func walkBounds(sys *finitelb.System, maxBlock int) (finitelb.Bounds, int, error) {
	err := fmt.Errorf("no stable bracket within block budget %d", maxBlock)
	for t := 3; statespace.Binomial(sys.N()+t-1, t) <= float64(maxBlock); t++ {
		b, terr := sys.DelayBounds(t)
		if terr == nil {
			return b, t, nil
		}
		err = terr
		if !errors.Is(terr, finitelb.ErrUnstable) {
			break
		}
	}
	return finitelb.Bounds{}, 0, err
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
	b, t, err := walkBounds(sys, maxPredictBlock)
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
