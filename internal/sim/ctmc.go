package sim

import (
	"math/rand/v2"

	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
)

// CTMCOptions configures a trajectory simulation of an sqd model.
type CTMCOptions struct {
	Events int64  // simulated jumps (default 1e6)
	Warmup int64  // discarded leading jumps (default Events/10)
	Seed   uint64 // RNG seed (default 1)
}

func (o *CTMCOptions) setDefaults() {
	if o.Events <= 0 {
		o.Events = 1_000_000
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Events / 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// CTMCResult holds time-average metrics of a model trajectory.
type CTMCResult struct {
	MeanJobs    float64 // time-average of #m
	MeanWaiting float64 // time-average of Σ max(m_i−1, 0)
	MeanDelay   float64 // MeanWaiting/(λN) + 1, comparable to qbd.Solution
}

// RunCTMC simulates the jump chain of any sqd model (including the bound
// models, whose redirected transitions it follows faithfully) and returns
// time-averaged state functionals. This provides an independent check of
// the matrix-geometric stationary solutions: simulating the *lower-bound
// model* must reproduce the analytic lower bound, not the exact SQ(d)
// value.
func RunCTMC(model sqd.Model, start statespace.State, opts CTMCOptions) CTMCResult {
	opts.setDefaults()
	rng := rand.New(rand.NewPCG(opts.Seed, 0xda3e39cb))

	state := start.Clone()
	var totalTime, jobsArea, waitArea float64
	for step := int64(0); step < opts.Events+opts.Warmup; step++ {
		trs := sqd.Merged(model.Transitions(state))
		var rate float64
		for _, tr := range trs {
			rate += tr.Rate
		}
		dwell := rng.ExpFloat64() / rate
		if step >= opts.Warmup {
			totalTime += dwell
			// Rounded products: no FMA off amd64.
			jobsArea += float64(dwell * float64(state.Total()))
			waitArea += float64(dwell * float64(state.WaitingJobs()))
		}
		// Pick the next state proportionally to rate.
		u := rng.Float64() * rate
		next := trs[len(trs)-1].To
		for _, tr := range trs {
			if u < tr.Rate {
				next = tr.To
				break
			}
			u -= tr.Rate
		}
		state = next
	}
	p := model.Params()
	res := CTMCResult{
		MeanJobs:    jobsArea / totalTime,
		MeanWaiting: waitArea / totalTime,
	}
	res.MeanDelay = res.MeanWaiting/p.TotalArrivalRate() + 1
	return res
}
