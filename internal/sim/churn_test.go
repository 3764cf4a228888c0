package sim

import (
	"math"
	"strings"
	"testing"

	"finitelb/internal/chaos"
	"finitelb/internal/sqd"
	"finitelb/internal/trace"
	"finitelb/internal/workload"
)

func churnOf(events ...workload.ChurnEvent) *workload.Churn {
	return &workload.Churn{Events: events}
}

func TestChurnValidation(t *testing.T) {
	p := sqd.Params{N: 4, D: 2, Rho: 0.5}
	for _, c := range []struct {
		name string
		ch   *workload.Churn
		want string
	}{
		{"unresolved server", churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: -1}), "no server"},
		{"out of range", churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: 4}), "targets server"},
		{"stall is live-only", churnOf(workload.ChurnEvent{Kind: workload.ChurnStall, T: 1, Server: 0, Dur: 5}), "live-only"},
		{"pause is live-only", churnOf(workload.ChurnEvent{Kind: workload.ChurnPause, T: 1, Server: -1}), "live-only"},
		{"double down", churnOf(
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: 0},
			workload.ChurnEvent{Kind: workload.ChurnLeave, T: 2, Server: 0}), "already down"},
		{"restore while up", churnOf(workload.ChurnEvent{Kind: workload.ChurnRestore, T: 1, Server: 2}), "already up"},
		{"all down", churnOf(
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: 0},
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 2, Server: 1},
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 3, Server: 2},
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 4, Server: 3}), "last live server"},
		{"negative time", churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: -1, Server: 0}), "finite and ≥ 0"},
		{"NaN time", churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: math.NaN(), Server: 0}), "finite and ≥ 0"},
		{"infinite time", churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: math.Inf(1), Server: 0}), "finite and ≥ 0"},
		{"zero factor", churnOf(workload.ChurnEvent{Kind: workload.ChurnSlow, T: 1, Server: 0}), "finite and > 0"},
		{"negative factor", churnOf(workload.ChurnEvent{Kind: workload.ChurnSlow, T: 1, Server: 0, Factor: -2}), "finite and > 0"},
		{"NaN factor", churnOf(workload.ChurnEvent{Kind: workload.ChurnSlow, T: 1, Server: 0, Factor: math.NaN()}), "finite and > 0"},
		{"infinite factor", churnOf(workload.ChurnEvent{Kind: workload.ChurnSlow, T: 1, Server: 0, Factor: math.Inf(1)}), "finite and > 0"},
		{"out of order", churnOf(
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 5, Server: 0},
			workload.ChurnEvent{Kind: workload.ChurnRestore, T: 2, Server: 0}), "time order"},
	} {
		_, err := Run(p, Options{Jobs: 10, Churn: c.ch})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// Churn and tracing are mutually exclusive.
	_, err := Run(p, Options{Jobs: 10,
		Churn: churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: 0}),
		Trace: trace.New(trace.Config{Sample: 1, Cap: 64})})
	if err == nil || !strings.Contains(err.Error(), "tracing") {
		t.Errorf("churn+trace: err = %v, want tracing rejection", err)
	}
}

func TestChurnDeterminism(t *testing.T) {
	p := sqd.Params{N: 4, D: 2, Rho: 0.7}
	opts := Options{Jobs: 30_000, Seed: 42, Churn: churnOf(
		workload.ChurnEvent{Kind: workload.ChurnCrash, T: 500, Server: 1},
		workload.ChurnEvent{Kind: workload.ChurnSlow, T: 800, Server: 2, Factor: 3},
		workload.ChurnEvent{Kind: workload.ChurnRestore, T: 2000, Server: 1},
		workload.ChurnEvent{Kind: workload.ChurnSlow, T: 2500, Server: 2, Factor: 1},
		workload.ChurnEvent{Kind: workload.ChurnLeave, T: 4000, Server: 0},
	)}
	a, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, same schedule, different results:\n%+v\n%+v", a, b)
	}
	c, err := Run(p, Options{Jobs: opts.Jobs, Seed: 43, Churn: opts.Churn})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical results")
	}
}

// TestChurnNeverFiringBitIdentical pins that arming churn changes no
// draw: an event beyond the measured horizon never fires, and the result
// must be bit-equal to the churn-free run.
func TestChurnNeverFiringBitIdentical(t *testing.T) {
	p := sqd.Params{N: 6, D: 2, Rho: 0.8}
	base, err := Run(p, Options{Jobs: 20_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	churned, err := Run(p, Options{Jobs: 20_000, Seed: 9, Churn: churnOf(
		workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1e18, Server: 0})})
	if err != nil {
		t.Fatal(err)
	}
	if base != churned {
		t.Errorf("never-firing churn changed the run:\nbase    %+v\nchurned %+v", base, churned)
	}
}

// TestChurnCrashMatchesDegradedFarm is the simulator twin of the live
// chaos calibration, and the oracle that licenses re-pinning
// TestChurnGoldens: crash k of N at t=0 with the offered rate fixed at
// ρ·N, and the run must reproduce the (N−k, ρ·N/(N−k)) system — the same
// policy on the survivors at the same aggregate rate — for every policy:
// within statistical error of an independently seeded direct run, and,
// because the survivors' farm gets the policy's ordinary picker and no
// draw depends on a server's id, bit for bit equal to the direct run at
// the same seed. The victims are adjacent on purpose: a picker that
// repairs a pick on a down server by probing its successor hands server
// 0 the share of 2 and 3 on top of its own (3/4 of round-robin's and
// random's traffic), which this test then rejects.
func TestChurnCrashMatchesDegradedFarm(t *testing.T) {
	const jobs = 200_000
	crash := churnOf(
		workload.ChurnEvent{Kind: workload.ChurnCrash, T: 0, Server: 2},
		workload.ChurnEvent{Kind: workload.ChurnCrash, T: 0, Server: 3},
	)
	for _, policy := range []string{"sqd:2", "jsq", "jiq", "lwl", "rr", "random"} {
		pol, err := workload.ParsePolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(sqd.Params{N: 4, D: 2, Rho: 0.45}, Options{Jobs: jobs, Seed: 7, Policy: pol, Churn: crash})
		if err != nil {
			t.Fatal(err)
		}
		small := sqd.Params{N: 2, D: 2, Rho: 0.9}
		twin, err := Run(small, Options{Jobs: jobs, Seed: 7, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if got != twin {
			t.Errorf("%s: crashed farm is not the smaller farm at the same seed:\ncrashed %+v\ndirect  %+v", policy, got, twin)
		}
		want, err := Run(small, Options{Jobs: jobs, Seed: 11, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		tol := 6*(got.HalfWidth+want.HalfWidth) + 0.1
		t.Logf("%-6s crashed N=4→2: %.4f ± %.4f; direct N=2 ρ=0.9: %.4f ± %.4f (tol %.3f)",
			policy, got.MeanDelay, got.HalfWidth, want.MeanDelay, want.HalfWidth, tol)
		if d := got.MeanDelay - want.MeanDelay; d < -tol || d > tol {
			t.Errorf("%s: crashed-farm mean %.4f vs degraded-farm mean %.4f: outside tolerance %.3f",
				policy, got.MeanDelay, want.MeanDelay, tol)
		}
	}
}

// TestChurnSlowRaisesDelay sanity-checks the slow injector: degrading
// one of two servers 4× must visibly raise the mean sojourn.
func TestChurnSlowRaisesDelay(t *testing.T) {
	p := sqd.Params{N: 2, D: 2, Rho: 0.5}
	base, err := Run(p, Options{Jobs: 60_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	slowed, err := Run(p, Options{Jobs: 60_000, Seed: 3, Churn: churnOf(
		workload.ChurnEvent{Kind: workload.ChurnSlow, T: 0, Server: 0, Factor: 4})})
	if err != nil {
		t.Fatal(err)
	}
	if !(slowed.MeanDelay > base.MeanDelay+3*base.HalfWidth) {
		t.Errorf("4× slow on one of two servers did not raise mean delay: %.4f vs %.4f",
			slowed.MeanDelay, base.MeanDelay)
	}
}

// TestChurnGoldens pins churn runs bit for bit. The schedule exercises
// every simulated kind (crash with redistribution, graceful leave with an
// in-service residual, slow, restore) and leaves the farm one server
// short to the end. At N = 10 the four policies cover SQ(d)'s sample, a
// length scan, a work scan and a length-blind cursor over the rank view;
// the N = 100 rows add the min-index trees.
//
// The sqd:2 row and both N = 100 rows are the Results captured at commit
// 8a2d7fb, before churn moved onto the one typed loop; they survived the
// move to the rank view untouched (a fresh SQ(d) permutation over the
// survivors draws what the old survivor list drew, and a tree argmin
// draws the same descent whether it is reported as an id or a rank). The
// jsq, rr and lwl rows at N = 10 were re-pinned once, when a degraded
// farm became the policy's ordinary picker on the alive servers: from
// the first membership event on, the scans rotate their origin with
// IntN(alive) over ranks instead of IntN(N) over a masked view, and
// round-robin's cursor restarts over the survivors instead of probing
// the successor of a down server. TestChurnCrashMatchesDegradedFarm is
// the oracle that licenses the re-pin.
func TestChurnGoldens(t *testing.T) {
	spec, err := workload.ParseChurn("crash@200,leave@400,slow@600@f=2,restore@2000")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy string
		p      sqd.Params
		jobs   int64
		want   Result
	}{
		{"sqd:2", sqd.Params{N: 10, D: 2, Rho: 0.6}, 30_000, Result{MeanDelay: 2.01996227448456, MeanWait: 1.01996227448456, HalfWidth: 0.07017650723703793, Jobs: 30000, MaxQueue: 8, P50: 1.4476800818050808, P95: 5.754650636982901, P99: 9.300092397207594}},
		{"jsq", sqd.Params{N: 10, D: 2, Rho: 0.6}, 30_000, Result{MeanDelay: 1.3817365656976963, MeanWait: 0.3817365656976963, HalfWidth: 0.04776709306732452, Jobs: 30000, MaxQueue: 5, P50: 0.9511802764434862, P95: 4.178689443140948, P99: 6.753181100290354}},
		{"rr", sqd.Params{N: 10, D: 2, Rho: 0.6}, 30_000, Result{MeanDelay: 67.2246065349557, MeanWait: 66.2246065349557, HalfWidth: 5.443637597566384, Jobs: 30000, MaxQueue: 919, P50: 1.5682572930148795, P95: 685.5131467993142, P99: 1224.376497438467}},
		{"lwl", sqd.Params{N: 10, D: 2, Rho: 0.6}, 30_000, Result{MeanDelay: 1.2116443516708268, MeanWait: 0.21164435167082685, HalfWidth: 0.029790847993403695, Jobs: 30000, MaxQueue: 8, P50: 0.8780477199413352, P95: 3.4903138713917317, P99: 5.419515033387207}},
		{"jsq", sqd.Params{N: 100, D: 2, Rho: 0.9}, 300_000, Result{MeanDelay: 1.1148603523300884, MeanWait: 0.1148603523300884, HalfWidth: 0.014485475407236006, Jobs: 300000, MaxQueue: 3, P50: 0.7787553520143207, P95: 3.3534522354191125, P99: 5.103896839254332}},
		{"lwl", sqd.Params{N: 100, D: 2, Rho: 0.9}, 300_000, Result{MeanDelay: 1.0505534665693943, MeanWait: 0.0505534665693943, HalfWidth: 0.010443046573498876, Jobs: 300000, MaxQueue: 7, P50: 0.7482189202129556, P95: 3.0343189471832916, P99: 4.711478037874681}},
	} {
		evs, err := chaos.Resolve(spec, 1, tc.p.N)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.ParsePolicy(tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(tc.p, Options{Jobs: tc.jobs, Seed: 1, Policy: pol, Churn: &workload.Churn{Events: evs}})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s/N=%d: churn run drifted from the captured golden:\ngot  %#v\nwant %#v", tc.policy, tc.p.N, got, tc.want)
		}
	}
}
