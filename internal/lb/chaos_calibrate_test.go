package lb

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"finitelb/internal/workload"
)

// TestChaosCalibrationRecovery is the failure-domain closure of the
// calibration suite: the QBD bracket doesn't just describe a healthy
// farm, it predicts where the farm lands after losing and regaining
// capacity. An open-loop SQ(2) farm of N=4 runs at per-server ρ=0.45;
// crashing k=2 servers holds the offered rate constant, so the
// surviving pair runs at effective ρ = 0.45·4/2 = 0.9 — a different
// solved system, (N−k, ρ_eff) — and the measured windowed mean delay
// must re-enter *that* bracket. Restoring the servers must bring the
// measured mean back inside the N-server bracket. Windowed means are
// differenced from Summary snapshots (mean·jobs telescopes), so each
// phase is judged on its own traffic, not diluted by history.
//
// Slack policy mirrors TestLiveDelayWithinQBDBounds: a fraction of the
// bracket's upper edge for windowed statistical noise (the windows hold
// a few thousand jobs, not the full-run sample), plus the measured
// completion-observation lateness. A directional check (degraded mean
// clearly above healthy mean) keeps teeth independent of the slack.
func TestChaosCalibrationRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos calibration needs wall-clock traffic")
	}
	const (
		n    = 4
		k    = 2
		rho  = 0.45
		rhoK = rho * n / (n - k) // 0.9 on the survivors
	)
	loN, hiN := qbdBracket(t, n, rho)
	loK, hiK := qbdBracket(t, n-k, rhoK)

	lb, err := New(Config{
		N:           n,
		Policy:      workload.SQD{D: 2},
		MeanService: time.Millisecond,
		QueueCap:    1 << 16,
		BatchSize:   50,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Open loop at the fixed healthy-farm rate; Jobs is a ceiling the
		// cancel below cuts short.
		if _, err := lb.RunLoadGen(ctx, GenConfig{Rho: rho, Jobs: 1 << 30, Seed: 23}); err != nil && ctx.Err() == nil {
			t.Errorf("load generator: %v", err)
		}
	}()

	// window measures the mean delay of exactly the jobs completing in
	// the next span: Summary means telescope as mean·jobs.
	window := func(span time.Duration) (float64, int64) {
		s1 := lb.Summary()
		time.Sleep(span)
		s2 := lb.Summary()
		jobs := s2.Jobs - s1.Jobs
		if jobs <= 0 {
			t.Fatalf("no completions in a %v window", span)
		}
		return (s2.MeanDelay*float64(s2.Jobs) - s1.MeanDelay*float64(s1.Jobs)) / float64(jobs), jobs
	}

	time.Sleep(2 * time.Second) // past the empty-start transient
	healthy, jh := window(3 * time.Second)

	for i := 0; i < k; i++ {
		victim := 2*i + 1 // servers 1 and 3
		// Crash at an instant the victim is observed busy, so that the
		// requeue assertion below holds by construction: a server at
		// ρ = 0.45 is idle more often than not, and two crashes at
		// arbitrary instants requeue nothing three times in ten.
		for busyBy := time.Now().Add(time.Second); lb.slots[victim].qlen.Load() == 0 && time.Now().Before(busyBy); {
			runtime.Gosched()
		}
		if err := lb.Crash(victim); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Second) // convergence to the degraded regime
	degraded, jd := window(4 * time.Second)

	for i := 0; i < k; i++ {
		if err := lb.Join(2*i + 1); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Second) // drain the degraded backlog
	restored, jr := window(3 * time.Second)

	cancel()
	wg.Wait()
	st := mustShutdown(t, lb)
	conserve(t, lb, st)
	final := lb.Summary()
	lateness := math.Max(final.MeanService-1, 0.1)

	t.Logf("N=%d bracket [%.3f, %.3f]; N−k=%d bracket [%.3f, %.3f]; svc gauge %.3f", n, loN, hiN, n-k, loK, hiK, final.MeanService)
	t.Logf("healthy %.3f (%d jobs) → degraded %.3f (%d jobs) → restored %.3f (%d jobs)", healthy, jh, degraded, jd, restored, jr)

	inBracket := func(phase string, m, lo, hi, slack float64) {
		t.Helper()
		if m < lo-slack || m > hi+slack {
			t.Errorf("%s: windowed mean %.4f outside [%.4f, %.4f] (slack %.3f)", phase, m, lo, hi, slack)
		}
	}
	slackN := 0.5*hiN + 2*lateness
	slackK := 0.35*hiK + 2*lateness
	inBracket("healthy N", healthy, loN, hiN, slackN)
	inBracket("degraded N−k at ρ_eff", degraded, loK, hiK, slackK)
	inBracket("restored N", restored, loN, hiN, slackN)
	// The regime change itself, independent of slack: two servers at
	// ρ 0.9 queue far deeper than four at ρ 0.45.
	if degraded < healthy+0.5 {
		t.Errorf("degraded mean %.4f not clearly above healthy %.4f", degraded, healthy)
	}
	if o := lb.Recorder().Outcomes(); o.Requeued == 0 {
		t.Error("crashing 2 of 4 servers mid-run requeued nothing")
	}
	if st.Rejected != 0 {
		t.Errorf("%d rejects with an effectively unbounded queue", st.Rejected)
	}
}
