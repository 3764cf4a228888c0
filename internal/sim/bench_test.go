package sim

import (
	"fmt"
	"testing"

	"finitelb/internal/sqd"
	"finitelb/internal/trace"
	"finitelb/internal/workload"
)

// Event-core micro-benchmarks, for measuring while working on the loop;
// the repository's benchmark is `bash bench/run.sh` (workloads sim_paper
// and sim_pluggable, per-cell metrics sim.ns_per_job.*). Each op is one
// measured job — one arrival event plus one departure event — so
// events/sec is 2e9/ns_per_op. Three configurations:
//
//   - fast: the default wiring (Poisson/exponential/SQ(2));
//   - jsq-indexed: JSQ through the minindex tree at N ≥ 64 (scan below),
//     the large-N full-information policy;
//   - lwl-work-aware: LWL with per-job work tracking and heavy-tailed
//     service, the most bookkeeping-intensive path.
var benchConfigs = []struct {
	name string
	opts func() Options
}{
	{"fast", func() Options { return Options{} }},
	{"jsq-indexed", func() Options { return Options{Policy: workload.JSQ{}} }},
	{"lwl-work-aware", func() Options {
		pareto, err := workload.NewBoundedPareto(1.5, 1000)
		if err != nil {
			panic(err)
		}
		return Options{Service: pareto, Policy: workload.LWL{}}
	}},
}

var benchSizes = []int{10, 250, 1000, 10000}

func BenchmarkSimJobs(b *testing.B) {
	for _, bc := range benchConfigs {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", bc.name, n), func(b *testing.B) {
				p := sqd.Params{N: n, D: 2, Rho: 0.9}
				opts := bc.opts()
				opts.Jobs = int64(b.N)
				opts.Warmup = 1 // skip the warmup default of Jobs/10
				opts.Seed = 1
				opts.setDefaults()
				w, err := resolve(p, opts)
				if err != nil {
					b.Fatal(err)
				}
				// Construct the runner — server rings, dispatch trees, and
				// the measurement stream — outside the timed region, so B/op
				// measures the event path itself: timed whole, the ~1 MB of
				// setup at N=10⁴ divided by ~2M iterations surfaces as a
				// phantom 1–2 B/op.
				res := newSimStream(opts.BatchSize)
				tr := newTypedRunner(p, w, opts.Warmup, res, opts.Seed)
				b.ReportAllocs()
				b.ResetTimer()
				tr.run(opts.Jobs)
				b.ReportMetric(float64(res.StateBytes()), "state_bytes")
			})
		}
	}
}

// BenchmarkSimJobsTraced prices the flight recorder on the default
// wiring at N=250: trace-off is BenchmarkSimJobs/fast/N=250 (the
// recorder branch is a nil check there, so those two must sit within
// noise of each other), sample=1024 is the production setting, and
// sample=1 the worst case — every job pays the span writes and the
// three stage-sketch observations. Allocs stay 0 at any rate (ring,
// pending table, and sketches are preallocated).
func BenchmarkSimJobsTraced(b *testing.B) {
	for _, every := range []int{1024, 1} {
		b.Run(fmt.Sprintf("sample=%d/N=250", every), func(b *testing.B) {
			p := sqd.Params{N: 250, D: 2, Rho: 0.9}
			opts := Options{Jobs: int64(b.N), Warmup: 1, Seed: 1}
			opts.setDefaults()
			w, err := resolve(p, opts)
			if err != nil {
				b.Fatal(err)
			}
			rec := trace.New(trace.Config{Sample: every, Cap: 4096, Seed: 1, Scale: 1})
			res := newSimStream(opts.BatchSize)
			tr := newTypedRunner(p, w, opts.Warmup, res, opts.Seed)
			tr.st.tr = newSimTracer(rec, p.N)
			b.ReportAllocs()
			b.ResetTimer()
			tr.run(opts.Jobs)
		})
	}
}
