package lb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"finitelb/internal/workload"
)

// Dispatch-hot-path micro-benchmarks, for measuring while working on the
// dispatch path; the repository's benchmark is `bash bench/run.sh`
// (workload dispatch_direct, per-layer metrics lb.dispatch_ns.*). Two
// altitudes:
//
//   - BenchmarkPick isolates the routing decision itself — the policy's
//     sample over the sharded atomic table — which is what must stay O(d)
//     for SQ(d) as N grows;
//   - BenchmarkDispatch measures the full submit path (closed-check,
//     pick, queue reservation, channel handoff) against live draining
//     servers, whose reciprocal is the farm's jobs/sec dispatch ceiling.
//
// Service times are effectively zero so queueing physics stays out of the
// numbers.
var benchPolicies = []struct {
	name   string
	policy workload.Policy
}{
	{"sqd2", workload.SQD{D: 2}},
	{"jsq", workload.JSQ{}},
	{"jiq", workload.JIQ{}},
	{"lwl", workload.LWL{}},
	{"random", workload.Random{}},
}

var benchSizes = []int{10, 100, 1000, 10000}

func benchFarm(b *testing.B, n int, policy workload.Policy) *LB {
	b.Helper()
	queueCap := 1 << 14
	if n >= 10000 {
		// 10k servers × 16k-slot channel buffers would allocate gigabytes
		// of backing array before the first dispatch; the backpressure
		// loop below needs depth, not that much of it.
		queueCap = 128
	}
	lb, err := New(Config{
		N:           n,
		Policy:      policy,
		MeanService: time.Nanosecond, // jobs complete at channel speed
		QueueCap:    queueCap,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if _, err := lb.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
	})
	return lb
}

func BenchmarkDispatch(b *testing.B) {
	for _, bp := range benchPolicies {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", bp.name, n), func(b *testing.B) {
				lb := benchFarm(b, n, bp.policy)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Closed-loop backpressure: when the producer outruns
					// the drainers and fills a bounded queue, yield and
					// retry, so ns/op is the steady-state per-job cost of
					// the whole dispatch pipeline.
					for {
						err := lb.Dispatch(1)
						if err == nil {
							break
						}
						if !errors.Is(err, ErrQueueFull) {
							b.Fatal(err)
						}
						runtime.Gosched()
					}
				}
				// Recorder accumulator footprint (bench/run.sh reports it
				// as lb.recorder_state_bytes): per-server sketch shards at
				// N ≤ 1024, O(KB) each.
				b.ReportMetric(float64(lb.rec.StateBytes()), "state_bytes")
			})
		}
	}
}

// BenchmarkDispatchContended is the multi-producer axis: D goroutines
// hammer Dispatch on one shared farm (table + min-index), the shape of D
// front-end dispatchers feeding a common pool. Healthy scaling shows as
// ns/op holding (or dropping) while D grows; a serializing hot spot shows
// as ns/op rising with D. N=1000 with indexed JSQ keeps the pick itself
// off the critical path so the contention being measured is the shared
// state: queue reservations, index repair, channel handoffs.
func BenchmarkDispatchContended(b *testing.B) {
	for _, d := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			// Moderate queue depth: the 1<<14 buffers the single-producer
			// benchmarks keep for baseline comparability cost more in GC
			// scan time (16M pointer-bearing job slots) than the dispatch
			// path being measured here costs in total.
			lb, err := New(Config{
				N:           1000,
				Policy:      workload.JSQ{},
				MeanService: time.Nanosecond,
				QueueCap:    256,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				if _, err := lb.Shutdown(ctx); err != nil {
					b.Errorf("shutdown: %v", err)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < d; g++ {
				jobs := b.N / d
				if g < b.N%d {
					jobs++
				}
				wg.Add(1)
				go func(jobs int) {
					defer wg.Done()
					for i := 0; i < jobs; i++ {
						for {
							err := lb.Dispatch(1)
							if err == nil {
								break
							}
							if !errors.Is(err, ErrQueueFull) {
								b.Error(err)
								return
							}
							runtime.Gosched()
						}
					}
				}(jobs)
			}
			wg.Wait()
		})
	}
}

func BenchmarkPick(b *testing.B) {
	for _, bp := range benchPolicies {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", bp.name, n), func(b *testing.B) {
				lb := benchFarm(b, n, bp.policy)
				d := lb.dispatchers.Get().(*dispatcher)
				defer lb.dispatchers.Put(d)
				b.ResetTimer()
				if lb.jiq {
					// The JIQ "pick" is the idle-stack pop/push pair.
					for i := 0; i < b.N; i++ {
						if id, ok := lb.idle.tryPop(); ok {
							lb.idle.push(id)
						}
					}
					return
				}
				for i := 0; i < b.N; i++ {
					_ = d.picker.Pick(d.rng, &d.view)
				}
			})
		}
	}
}
