package lb

import (
	"context"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"finitelb"
	"finitelb/internal/qbd"
	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

// The headline oracle of the live runtime: drive it with real
// wall-clock Poisson arrivals and exponential service under SQ(2), and
// assert the *measured* mean sojourn falls inside the paper's finite-N
// QBD delay bracket. This ties the running concurrent system — goroutine
// servers, atomic dispatch tables, real elapsed time — back to the
// Theorem-level guarantees the repository computes analytically, and is
// the "from model to machine" closure described in doc.go.
//
// Slack policy: the bracket is widened by 5× the batch-means CI
// half-width (statistical noise) plus an absolute allowance for
// completion-observation lateness (the Summary.MeanService gauge measures
// it; on sharp-timer hosts it is ~0). The test therefore has teeth
// against systemic errors — a wrong arrival rate, broken dispatch
// sampling, lost jobs, compounding service inflation — while staying
// robust to host timer jitter. Skipped under -short: it needs tens of
// real-time seconds of traffic.
func TestLiveDelayWithinQBDBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("live calibration needs wall-clock traffic")
	}
	for _, c := range []struct {
		n    int
		rho  float64
		jobs int64
	}{
		{2, 0.7, 4000},
		{2, 0.9, 4000},
		{10, 0.7, 8000},
		{10, 0.9, 8000},
	} {
		lo, hi := qbdBracket(t, c.n, c.rho)
		s := runLive(t, c.n, workload.SQD{D: 2}, c.rho, c.jobs)
		// Observation lateness in service units: the gauge's excess over
		// the nominal unit mean, floored at a modest allowance.
		lateness := math.Max(s.MeanService-1, 0.1)
		slack := 5*s.HalfWidth + 2*lateness
		t.Logf("N=%d ρ=%g: live %.4f ± %.4f ∈ [%.4f, %.4f]? (slack %.3f, svc gauge %.3f, maxQ %d)",
			c.n, c.rho, s.MeanDelay, s.HalfWidth, lo, hi, slack, s.MeanService, s.MaxQueue)
		if s.MeanDelay < lo-slack || s.MeanDelay > hi+slack {
			t.Errorf("N=%d ρ=%g: live mean delay %v outside QBD bounds [%v, %v] (slack %v)",
				c.n, c.rho, s.MeanDelay, lo, hi, slack)
		}
		if s.Rejected != 0 {
			t.Errorf("N=%d ρ=%g: %d rejects with an effectively unbounded queue", c.n, c.rho, s.Rejected)
		}
		// Distributional calibration (PR 8): the measured p99 should land
		// inside the predicted quantile bracket from the arrival-join-level
		// distribution (finitelb.DelayDistributionBracket — the same solve
		// behind lbd's predicted gauges). The p99 estimate rides on ~1% of
		// the measured jobs, so the slack is proportionally wider than the
		// mean check's; this still has teeth against systemic errors, which
		// move the tail by factors, not percents.
		if lo99, hi99, ok := qbdP99Bracket(t, c.n, c.rho); ok {
			slack99 := 0.25*hi99 + 2*lateness
			t.Logf("N=%d ρ=%g: live p99 %.4f ∈ [%.4f, %.4f]? (slack %.3f)",
				c.n, c.rho, s.P99, lo99, hi99, slack99)
			if s.P99 < lo99-slack99 || s.P99 > hi99+slack99 {
				t.Errorf("N=%d ρ=%g: live p99 %v outside predicted bracket [%v, %v] (slack %v)",
					c.n, c.rho, s.P99, lo99, hi99, slack99)
			}
		}
	}
}

// qbdP99Bracket solves the delay-distribution bracket for SQ(2) at
// (n, rho) and returns the predicted p99 interval. The N=10 ρ=0.9 cell is
// skipped (ok=false): its upper-bound chain is first stable at T=5, a
// minutes-long solve (see the pinned mean constants above).
func qbdP99Bracket(t *testing.T, n int, rho float64) (lo, hi float64, ok bool) {
	t.Helper()
	if n == 10 && rho == 0.9 {
		return 0, 0, false
	}
	sys, err := finitelb.NewSystem(n, 2, rho)
	if err != nil {
		t.Fatal(err)
	}
	for T := 3; T <= 4; T++ {
		br, err := sys.DelayDistributionBracket(T)
		if errors.Is(err, finitelb.ErrUnstable) {
			continue
		}
		if err != nil {
			t.Fatalf("N=%d ρ=%g T=%d: distribution bracket: %v", n, rho, T, err)
		}
		lo, hi = br.Quantile(0.99)
		return lo, hi, true
	}
	t.Fatalf("N=%d ρ=%g: no stable distribution bracket by T=4", n, rho)
	return 0, 0, false
}

// TestLivePolicyOrderingHolds runs the same live harness across the
// policy spectrum at equal load and asserts the information ordering the
// simulator pins analytically: the informed policies (JSQ, LWL, JIQ)
// beat two-sample SQ(2), which beats blind random. Under exponential
// service LWL and JSQ are near-equivalent (queue length is a good work
// proxy there), so LWL is asserted against SQ(2), not JSQ.
//
// The policies are measured side by side, not one after another: each
// keeps its own farm, and the jobs are offered in rounds that visit the
// farms in rotating order (see runLiveRounds). A change in host load
// over the run — a CPU-bound neighbour starting or finishing — then
// lands on every policy alike instead of on whichever ran first.
func TestLivePolicyOrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("live ordering needs wall-clock traffic")
	}
	const (
		n      = 8
		rho    = 0.85
		jobs   = 8000
		rounds = 10 // a multiple of the five policies: see runLiveRounds
	)
	s := runLiveRounds(t, n, []workload.Policy{
		workload.JSQ{}, workload.LWL{}, workload.JIQ{}, workload.SQD{D: 2}, workload.Random{},
	}, rho, jobs, rounds)
	jsq, lwl, jiq, sq2, rnd := s[0], s[1], s[2], s[3], s[4]
	t.Logf("live N=%d ρ=%g: jsq %.3f lwl %.3f jiq %.3f sq2 %.3f random %.3f",
		n, rho, jsq.MeanDelay, lwl.MeanDelay, jiq.MeanDelay, sq2.MeanDelay, rnd.MeanDelay)

	expectBelow := func(name string, a, b Summary) {
		t.Helper()
		if !(a.MeanDelay+a.HalfWidth < b.MeanDelay-b.HalfWidth) {
			t.Errorf("live %s: %v ± %v not below %v ± %v",
				name, a.MeanDelay, a.HalfWidth, b.MeanDelay, b.HalfWidth)
		}
	}
	expectBelow("JSQ < SQ(2)", jsq, sq2)
	expectBelow("LWL < SQ(2)", lwl, sq2)
	expectBelow("JIQ < random", jiq, rnd)
	expectBelow("SQ(2) < random", sq2, rnd)
}

// newLiveFarm builds the farm the live oracles measure: exponential
// service with a 2ms mean, a warmup of a tenth of the jobs, and a queue
// cap no run reaches.
func newLiveFarm(t *testing.T, n int, policy workload.Policy, jobs int64) *LB {
	t.Helper()
	lb, err := New(Config{
		N:           n,
		Policy:      policy,
		MeanService: 2 * time.Millisecond,
		Warmup:      jobs / 10,
		BatchSize:   max(jobs/(20*int64(n)), 20),
		QueueCap:    1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lb
}

// runLive builds a farm and pushes one open-loop Poisson/exponential run
// through it.
func runLive(t *testing.T, n int, policy workload.Policy, rho float64, jobs int64) Summary {
	t.Helper()
	lb := newLiveFarm(t, n, policy, jobs)
	s, err := lb.RunLoadGen(context.Background(), GenConfig{Rho: rho, Jobs: jobs, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	mustShutdown(t, lb)
	return s
}

// runLiveRounds gives each policy its own farm and offers the jobs to
// them in rounds of jobs/rounds, visiting the farms in an order that
// rotates by one each round, with one seed per round shared by every
// farm. When rounds is a multiple of len(policies) each farm is visited
// first, second, … equally often, so a step in host load biases no
// policy by more than one round's share. Each round starts on a drained
// farm, which lowers the means of the slowly mixing policies (random
// most: ≈5 mean service times in the ordering test against ≈7 from one
// long run), but every policy is measured from the same starts. A
// farm's Summary accumulates over its rounds, so each returned Summary
// covers all its jobs, in the order of policies.
func runLiveRounds(t *testing.T, n int, policies []workload.Policy, rho float64, jobs int64, rounds int) []Summary {
	t.Helper()
	farms := make([]*LB, len(policies))
	for i, p := range policies {
		farms[i] = newLiveFarm(t, n, p, jobs)
	}
	out := make([]Summary, len(policies))
	for r := 0; r < rounds; r++ {
		for k := range farms {
			i := (r + k) % len(farms)
			s, err := farms[i].RunLoadGen(context.Background(),
				GenConfig{Rho: rho, Jobs: jobs / int64(rounds), Seed: 23 + uint64(r)})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = s
		}
	}
	for _, lb := range farms {
		mustShutdown(t, lb)
	}
	return out
}

// Pinned QBD bounds for N=10, d=2, ρ=0.9 at T=5 (block size 2002): the
// upper-bound model is first stable at T=5 there, and that solve takes
// minutes — far beyond a test budget — so the values are computed once
// and pinned. Regenerate (and verify) with:
//
//	FINITELB_REGEN_QBD=1 go test -run TestPinnedQBDBounds -timeout 30m ./internal/lb
const (
	pinnedLowerN10R09 = 2.8803205427891676 // LowerBound(5), improved (Theorem 3)
	pinnedUpperN10R09 = 3.706005528554274  // UpperBound(5)
)

// qbdBracket returns the paper's [lower, upper] mean-delay bracket for
// SQ(2) at (n, rho), solving the cheap configurations inline and using
// the pinned constants where the solve is test-prohibitive.
func qbdBracket(t *testing.T, n int, rho float64) (lo, hi float64) {
	t.Helper()
	if n == 10 && rho == 0.9 {
		return pinnedLowerN10R09, pinnedUpperN10R09
	}
	p := sqd.Params{N: n, D: 2, Rho: rho}
	// Walk T up from 3 (sharper than the first-stable threshold, still
	// cheap: block size ≤ 220 for these configurations).
	for T := 3; T <= 4; T++ {
		bp := sqd.BoundParams{Params: p, T: T}
		hiSol, err := qbd.Solve(&sqd.UpperBound{P: bp}, qbd.Options{})
		if err != nil {
			continue
		}
		loSol, err := qbd.Solve(&sqd.LowerBound{P: bp}, qbd.Options{ImprovedLB: true})
		if err != nil {
			t.Fatalf("N=%d ρ=%g T=%d: lower bound: %v", n, rho, T, err)
		}
		return loSol.MeanDelay, hiSol.MeanDelay
	}
	t.Fatalf("N=%d ρ=%g: no stable upper bound by T=4", n, rho)
	return 0, 0
}

// TestPinnedQBDBounds recomputes the pinned N=10 ρ=0.9 bracket from the
// QBD solvers and compares. Solving at T=5 takes minutes, so it only
// runs when FINITELB_REGEN_QBD is set.
func TestPinnedQBDBounds(t *testing.T) {
	if os.Getenv("FINITELB_REGEN_QBD") == "" {
		t.Skip("set FINITELB_REGEN_QBD=1 to re-solve the pinned T=5 bracket (takes minutes)")
	}
	bp := sqd.BoundParams{Params: sqd.Params{N: 10, D: 2, Rho: 0.9}, T: 5}
	lo, err := qbd.Solve(&sqd.LowerBound{P: bp}, qbd.Options{ImprovedLB: true})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := qbd.Solve(&sqd.UpperBound{P: bp}, qbd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo.MeanDelay-pinnedLowerN10R09) > 1e-9 || math.Abs(hi.MeanDelay-pinnedUpperN10R09) > 1e-9 {
		t.Errorf("pinned bounds stale: solved [%.16g, %.16g], pinned [%.16g, %.16g]",
			lo.MeanDelay, hi.MeanDelay, pinnedLowerN10R09, pinnedUpperN10R09)
	}
}
