package sim

import (
	"math"
	"testing"

	"finitelb/internal/embedded"
	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

// TestDefaultWiringSpellingsPinned pins the paper's wiring (Poisson
// arrivals, exponential service, SQ(d), unit speeds, R = 1) bit for bit,
// reached three ways: everything defaulted, the default pieces spelled out
// explicitly, and an explicit all-ones speed vector, which must take the
// unit-speed shortcut's bits through the division-by-speed arm.
//
// The Results were captured when every job's requirement moved to being
// drawn at arrival (before, SQ(d) drew it at service start). That changes
// the draw sequence, not the law: the new means lie within one combined
// 95% half-width of the old pins (N=4: 1.8505 → 1.8632; N=1: 4.8272 →
// 4.9611, M/M/1's 1/(1−ρ) = 5; N=32: 2.1812 → 2.0772).
func TestDefaultWiringSpellingsPinned(t *testing.T) {
	for _, tc := range []struct {
		p    sqd.Params
		jobs int64
		seed uint64
		want Result
	}{
		{sqd.Params{N: 4, D: 2, Rho: 0.7}, 30000, 9, Result{MeanDelay: 1.863174801113485, MeanWait: 0.863174801113485, HalfWidth: 0.0800485237970288, Jobs: 30000, MaxQueue: 11, P50: 1.3909138792051368, P95: 5.312197904013204, P99: 7.768043531562235}},
		{sqd.Params{N: 1, D: 1, Rho: 0.8}, 30000, 3, Result{MeanDelay: 4.961067913562933, MeanWait: 3.9610679135629328, HalfWidth: 0.3450637934191475, Jobs: 30000, MaxQueue: 28, P50: 3.5608252627329775, P95: 14.732260330942466, P99: 21.116435486210428}},
		{sqd.Params{N: 32, D: 3, Rho: 0.9}, 30000, 5, Result{MeanDelay: 2.0771784276029304, MeanWait: 1.0771784276029304, HalfWidth: 0.05463245203725648, Jobs: 30000, MaxQueue: 6, P50: 1.665236238778482, P95: 5.312197904013204, P99: 7.4634442361377795}},
	} {
		explicit := Options{
			Jobs: tc.jobs, Seed: tc.seed,
			Arrival: workload.Poisson{},
			Service: workload.Exponential{},
			Policy:  workload.SQD{D: tc.p.D},
			Speeds:  nil,
		}
		unitSpeeds := Options{Jobs: tc.jobs, Seed: tc.seed, Speeds: make([]float64, tc.p.N)}
		for i := range unitSpeeds.Speeds {
			unitSpeeds.Speeds[i] = 1
		}
		for name, opts := range map[string]Options{
			"defaulted":       {Jobs: tc.jobs, Seed: tc.seed},
			"explicit":        explicit,
			"explicit-speeds": unitSpeeds,
		} {
			got, err := Run(tc.p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("N=%d d=%d seed=%d (%s): result drifted from the pinned stream:\ngot  %#v\nwant %#v",
					tc.p.N, tc.p.D, tc.seed, name, got, tc.want)
			}
		}
	}
}

// TestMG1PollaczekKhinchine checks every service law against the M/G/1
// oracle at N = 1, d = 1: mean sojourn = 1 + ρ·E[S²]/(2(1−ρ)).
func TestMG1PollaczekKhinchine(t *testing.T) {
	const rho = 0.7
	pareto, err := workload.NewBoundedPareto(2.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []workload.Service{
		workload.DeterministicService{},
		workload.ErlangService{K: 4},
		workload.Exponential{},
		pareto,
	} {
		res, err := Run(sqd.Params{N: 1, D: 1, Rho: rho},
			Options{Jobs: 400_000, Seed: 11, Service: svc})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 + rho*svc.Moment2()/(2*(1-rho))
		if math.Abs(res.MeanDelay-want) > 5*res.HalfWidth+0.02*want {
			t.Errorf("M/G/1 %s: delay %v, want %v (CI ±%v)", svc, res.MeanDelay, want, res.HalfWidth)
		}
	}
}

// TestGIM1SigmaOracle checks every arrival process against the GI/M/1
// oracle at N = 1, d = 1: mean sojourn = 1/(1−σ) with σ the root of
// Theorem 2's embedded-chain equation for the same arrival value — the
// machinery the paper's improved lower bound rests on (embedded.Sigma).
func TestGIM1SigmaOracle(t *testing.T) {
	const rho = 0.75
	for _, arrival := range []workload.Arrival{
		workload.DeterministicArrivals{},
		workload.ErlangArrivals{K: 3},
		workload.Poisson{},
		workload.HyperExp{CV2: 4},
	} {
		sigma, err := embedded.Sigma(arrival, rho)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sqd.Params{N: 1, D: 1, Rho: rho},
			Options{Jobs: 400_000, Seed: 19, Arrival: arrival})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / (1 - sigma)
		if math.Abs(res.MeanDelay-want) > 5*res.HalfWidth+0.03*want {
			t.Errorf("GI/M/1 %s: delay %v, want %v (σ=%v, CI ±%v)",
				arrival, res.MeanDelay, want, sigma, res.HalfWidth)
		}
	}
}

// TestPolicyOrdering asserts the classical dominance chain at equal load —
// JSQ (full information) beats SQ(2) (two samples) beats uniform random
// (no information) — as a property, not a golden number. This is the
// correctness oracle for policies with no closed form.
func TestPolicyOrdering(t *testing.T) {
	p := sqd.Params{N: 8, D: 2, Rho: 0.85}
	opts := Options{Jobs: 300_000, Seed: 29}
	run := func(pol workload.Policy) Result {
		t.Helper()
		o := opts
		o.Policy = pol
		res, err := Run(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	jsq := run(workload.JSQ{})
	sq2 := run(workload.SQD{D: 2})
	jiq := run(workload.JIQ{})
	rnd := run(workload.Random{})

	if !(jsq.MeanDelay+jsq.HalfWidth < sq2.MeanDelay-sq2.HalfWidth) {
		t.Errorf("JSQ %v not below SQ(2) %v", jsq.MeanDelay, sq2.MeanDelay)
	}
	if !(sq2.MeanDelay+sq2.HalfWidth < rnd.MeanDelay-rnd.HalfWidth) {
		t.Errorf("SQ(2) %v not below random %v", sq2.MeanDelay, rnd.MeanDelay)
	}
	if !(jiq.MeanDelay+jiq.HalfWidth < rnd.MeanDelay-rnd.HalfWidth) {
		t.Errorf("JIQ %v not below random %v", jiq.MeanDelay, rnd.MeanDelay)
	}
	// Random at N servers is N independent M/M/1 queues: one more oracle.
	want := 1 / (1 - p.Rho)
	if math.Abs(rnd.MeanDelay-want) > 5*rnd.HalfWidth+0.02*want {
		t.Errorf("random: delay %v, want M/M/1 %v", rnd.MeanDelay, want)
	}
}

// TestLWLSingleServerMG1: at N = 1 every non-idling policy is the same
// M/G/1 queue, so LWL — which reads the backlog bookkeeping (pending sums,
// in-service remainders off the tracker) — must still reproduce
// Pollaczek–Khinchine for each service law. This pins that bookkeeping
// to an analytic oracle.
func TestLWLSingleServerMG1(t *testing.T) {
	const rho = 0.7
	pareto, err := workload.NewBoundedPareto(2.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []workload.Service{
		workload.DeterministicService{},
		workload.Exponential{},
		pareto,
	} {
		res, err := Run(sqd.Params{N: 1, D: 1, Rho: rho},
			Options{Jobs: 400_000, Seed: 13, Service: svc, Policy: workload.LWL{}})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 + rho*svc.Moment2()/(2*(1-rho))
		if math.Abs(res.MeanDelay-want) > 5*res.HalfWidth+0.02*want {
			t.Errorf("LWL M/G/1 %s: delay %v, want %v (CI ±%v)", svc, res.MeanDelay, want, res.HalfWidth)
		}
	}
}

// TestSingleServerPoliciesBitIdentical: at N = 1, SQ(1), JSQ, LWL, JIQ
// and random each take one IntN(1) draw per arrival and all route to the
// one server. With the requirement drawn at arrival under every policy,
// they consume the same draws in the same order, so their Results must be
// equal bit for bit — and the shared mean must be M/M/1's 1/(1−ρ). A
// policy that drew its requirement at service start would sit on another
// trajectory and break the equality.
func TestSingleServerPoliciesBitIdentical(t *testing.T) {
	const rho = 0.8
	p := sqd.Params{N: 1, D: 1, Rho: rho}
	var first Result
	for k, spec := range []string{"lwl", "sqd:1", "jsq", "jiq", "random"} {
		pol, err := workload.ParsePolicy(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(p, Options{Jobs: 50_000, Seed: 7, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			first = got
			if want := 1 / (1 - rho); math.Abs(got.MeanDelay-want) > 3*got.HalfWidth {
				t.Errorf("%s: M/M/1 delay %v ± %v, want %v", spec, got.MeanDelay, got.HalfWidth, want)
			}
			continue
		}
		if got != first {
			t.Errorf("%s at N=1 is not lwl's run:\ngot  %#v\nlwl  %#v", spec, got, first)
		}
	}
}

// TestLWLOrdering: least-work-left sees actual job sizes where JSQ sees
// only queue lengths, so under high-variance service — where a short queue
// can hide a huge job and the length proxy is blind — LWL must beat JSQ,
// which must beat SQ(2). Under exponential service the proxy is good and
// LWL may only tie JSQ, so the strict separation is asserted on the
// heavy-tailed workload.
func TestLWLOrdering(t *testing.T) {
	p := sqd.Params{N: 8, D: 2, Rho: 0.8}
	pareto, err := workload.NewBoundedPareto(1.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pol workload.Policy) Result {
		t.Helper()
		res, err := Run(p, Options{Jobs: 1_200_000, Seed: 43, Service: pareto, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lwl := run(workload.LWL{})
	jsq := run(workload.JSQ{})
	sq2 := run(workload.SQD{D: 2})

	if !(lwl.MeanDelay+lwl.HalfWidth < jsq.MeanDelay-jsq.HalfWidth) {
		t.Errorf("LWL %v ± %v not below JSQ %v ± %v under heavy-tailed service",
			lwl.MeanDelay, lwl.HalfWidth, jsq.MeanDelay, jsq.HalfWidth)
	}
	if !(jsq.MeanDelay+jsq.HalfWidth < sq2.MeanDelay-sq2.HalfWidth) {
		t.Errorf("JSQ %v not below SQ(2) %v under heavy-tailed service", jsq.MeanDelay, sq2.MeanDelay)
	}
}

// TestLWLHeterogeneousSpeeds: Work is time-to-drain, not raw work, so on
// a fleet with very unequal speeds LWL must exploit the fast server where
// queue-length-based JSQ treats both as equal. A 4×-vs-1× pair at
// moderate load separates the two cleanly; this pins the speed scaling in
// the WorkQueues view (a raw-work comparison routes jobs to the *slower*
// exit and lands on the wrong side).
func TestLWLHeterogeneousSpeeds(t *testing.T) {
	p := sqd.Params{N: 2, D: 2, Rho: 0.7}
	run := func(pol workload.Policy) Result {
		t.Helper()
		res, err := Run(p, Options{Jobs: 400_000, Seed: 47, Speeds: []float64{4, 1}, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lwl := run(workload.LWL{})
	jsq := run(workload.JSQ{})
	if !(lwl.MeanDelay+lwl.HalfWidth < jsq.MeanDelay-jsq.HalfWidth) {
		t.Errorf("heterogeneous LWL %v ± %v not below JSQ %v ± %v",
			lwl.MeanDelay, lwl.HalfWidth, jsq.MeanDelay, jsq.HalfWidth)
	}
}

// TestHeterogeneousSpeeds: a single server at speed s is an M/M/1 queue
// with rates (λ, μ) scaled by s, so its sojourn is 1/(s(1−ρ)); and a
// homogeneous fleet declared at speed 2 must behave like the unit fleet on
// a clock running twice as fast.
func TestHeterogeneousSpeeds(t *testing.T) {
	const rho = 0.8
	fast, err := Run(sqd.Params{N: 1, D: 1, Rho: rho},
		Options{Jobs: 300_000, Seed: 31, Speeds: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (2 * (1 - rho))
	if math.Abs(fast.MeanDelay-want) > 5*fast.HalfWidth+0.02*want {
		t.Errorf("speed-2 M/M/1: delay %v, want %v", fast.MeanDelay, want)
	}

	// A mixed fleet must not break conservation: with speeds (2, 2) and
	// SQ(2) = JSQ at N = 2 the system is an M/M/2-like farm twice as fast
	// as the unit one; its delay must be half the unit fleet's within CI.
	unit, err := Run(sqd.Params{N: 2, D: 2, Rho: rho}, Options{Jobs: 300_000, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Run(sqd.Params{N: 2, D: 2, Rho: rho},
		Options{Jobs: 300_000, Seed: 37, Speeds: []float64{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(2*twice.MeanDelay-unit.MeanDelay) > 5*(2*twice.HalfWidth+unit.HalfWidth) {
		t.Errorf("speed-2 fleet delay %v, want half of unit fleet %v", twice.MeanDelay, unit.MeanDelay)
	}
}

// TestRoundRobinDeterministicArrivals: round-robin splits a deterministic
// stream over N servers into N deterministic streams, so each server is a
// D/M/1 queue whose sojourn 1/(1−σ) comes from the σ-root with
// interarrival N/λ_total — i.e. per-server rate ρ.
func TestRoundRobinDeterministicArrivals(t *testing.T) {
	const rho = 0.8
	sigma, err := embedded.Sigma(workload.DeterministicArrivals{}, rho)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sqd.Params{N: 4, D: 1, Rho: rho}, Options{
		Jobs: 300_000, Seed: 41,
		Arrival: workload.DeterministicArrivals{},
		Policy:  workload.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 - sigma)
	if math.Abs(res.MeanDelay-want) > 5*res.HalfWidth+0.03*want {
		t.Errorf("RR + deterministic arrivals: delay %v, want D/M/1 %v (σ=%v)",
			res.MeanDelay, want, sigma)
	}
}

// TestSeedDeterminismAllWorkloads runs every workload axis twice with the
// same seed and diffs the full Result structs — the seed-determinism
// guarantee must survive the pluggable event loop, including stateful
// pickers and multi-replication merges.
func TestSeedDeterminismAllWorkloads(t *testing.T) {
	pareto, err := workload.NewBoundedPareto(1.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p := sqd.Params{N: 6, D: 2, Rho: 0.8}
	for name, opts := range map[string]Options{
		"default":      {Jobs: 20_000, Seed: 7},
		"bursty-jiq":   {Jobs: 20_000, Seed: 7, Arrival: workload.HyperExp{CV2: 9}, Policy: workload.JIQ{}},
		"det-rr":       {Jobs: 20_000, Seed: 7, Arrival: workload.DeterministicArrivals{}, Policy: workload.RoundRobin{}},
		"erlang-jsq":   {Jobs: 20_000, Seed: 7, Arrival: workload.ErlangArrivals{K: 2}, Service: workload.ErlangService{K: 3}, Policy: workload.JSQ{}},
		"pareto-het":   {Jobs: 20_000, Seed: 7, Service: pareto, Speeds: []float64{1, 1, 2, 2, 4, 4}},
		"pareto-lwl":   {Jobs: 20_000, Seed: 7, Service: pareto, Policy: workload.LWL{}},
		"replications": {Jobs: 20_000, Seed: 7, Replications: 3, Policy: workload.Random{}},
	} {
		a, err := Run(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Run(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: same seed, different Results:\n%+v\n%+v", name, a, b)
		}
	}
}

// TestWorkloadValidation: configuration errors must surface from Run, not
// the hot path.
func TestWorkloadValidation(t *testing.T) {
	p := sqd.Params{N: 4, D: 2, Rho: 0.7}
	for name, opts := range map[string]Options{
		"sqd d>n":        {Policy: workload.SQD{D: 9}},
		"erlang k=0":     {Service: workload.ErlangService{}},
		"bare pareto":    {Service: workload.BoundedPareto{Alpha: 2, H: 10}},
		"short speeds":   {Speeds: []float64{1, 1}},
		"negative speed": {Speeds: []float64{1, -1, 1, 1}},
		"bad hyperexp":   {Arrival: workload.HyperExp{CV2: 0.5}},
	} {
		o := opts
		o.Jobs = 10
		if _, err := Run(p, o); err == nil {
			t.Errorf("%s: Run accepted invalid workload", name)
		}
	}
}
