package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// run is the state of one workload run: its inputs, the metrics it has
// reported so far, and its correctness ledger.
type run struct {
	name    string
	seed    uint64
	seconds float64
	traced  bool
	root    string // repository checkout (holds cmd/lbd and .bench_build)
	tr      *tracer

	values    map[string]float64
	detail    map[string]string // "IQR 1.2% n=12" beside a value
	attempted int64
	failed    int64
	problems  []string // correctness failures; any makes the run incorrect
	setups    []float64
}

func newRun(name string, seed uint64, seconds float64, traced bool, root string) *run {
	r := &run{name: name, seed: seed, seconds: seconds, traced: traced, root: root,
		values: map[string]float64{}, detail: map[string]string{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// set reports a metric. The name must be in the registry: a typo, or a
// metric BENCHMARK.json does not list, fails the run.
func (r *run) set(name string, v float64) {
	if findMetric(endToEnd, name) == nil && findMetric(perLayer, name) == nil {
		r.problem("metric %q is not in the registry", name)
		return
	}
	r.values[name] = v
}

// setStat reports the median window of a phase with its IQR and count.
func (r *run) setStat(name string, s windowStat) {
	r.set(name, s.Median)
	r.detail[name] = fmt.Sprintf("IQR %.2f%% n=%d", 100*s.IQR/math.Abs(s.Median), s.N)
}

// ops counts operations attempted and failed. A failed operation has no
// latency sample, so it misses every latency figure.
func (r *run) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// problem records a correctness failure.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setup times one repetition of the workload's set-up; setup_s is the
// median over repetitions.
func (r *run) setup(fn func() error) error {
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return nil
}

// alternatingWindows is how many one-second windows a two-phase workload
// runs: phases alternate, and in a traced run span recording alternates in
// pairs of windows, so a traced run needs two pairs to see each phase both
// ways.
func (r *run) alternatingWindows() int {
	pairs := max(1, int(r.seconds/2))
	if r.traced {
		pairs = max(pairs, 2)
	}
	return 2 * pairs
}

// passBudget tells a fixed-work workload how many passes fit the run: it
// returns true until the measured time so far plus one more pass like the
// slowest seen would overrun seconds, but always for the first atLeast.
type passBudget struct {
	start   time.Time
	seconds float64
	atLeast int
	done    int
	slowest time.Duration
	last    time.Time
}

func newPassBudget(seconds float64, atLeast int) *passBudget {
	now := time.Now()
	return &passBudget{start: now, last: now, seconds: seconds, atLeast: atLeast}
}

func (b *passBudget) next() bool {
	now := time.Now()
	if b.done > 0 {
		b.slowest = max(b.slowest, now.Sub(b.last))
	}
	b.last = now
	ok := b.done < b.atLeast || now.Sub(b.start).Seconds()+b.slowest.Seconds() <= b.seconds
	if ok {
		b.done++
	}
	return ok
}

// selfRSSMB is this process's max RSS so far.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// selfCPU is this process's user+sys CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish closes the run: fills setup_s, checks that every metric due was
// reported, prints the human-readable table to w and returns the result.
func (r *run) finish(w io.Writer) result {
	if len(r.setups) > 0 {
		r.setStat("setup_s", summarize(r.setups))
	}
	if r.tr != nil {
		_, worst := selfTimes(r.tr.spans)
		r.set("harness.span_sum_err_pct", 100*worst)
		if worst > 0.02 {
			r.problem("span self times plus children miss a parent span by %.1f%%", 100*worst)
		}
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		switch {
		case !ok && r.traced && !slices.Contains(d.On, r.name):
			v = 0 // this layer is not exercised by this workload
		case !ok:
			r.problem("metric %s was not measured", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.problem("metric %s = %v", d.Name, v)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if r.attempted < 1 {
		r.problem("no operation was attempted")
		res.Attempted = 1
	}
	if r.failed > 0 {
		r.problem("%d of %d operations failed", r.failed, r.attempted)
	}
	res.Correct = len(r.problems) == 0

	mode := "untraced: end-to-end metrics"
	if r.traced {
		mode = "traced: per-layer metrics; end-to-end values below are indicative only"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g  (%s)\n", r.name, r.seed, r.seconds, mode)
	for _, n := range sortedKeys(r.values) {
		d := findMetric(endToEnd, n)
		if d == nil {
			d = findMetric(perLayer, n)
		}
		fmt.Fprintf(w, "  %-42s %14.6g %-8s %s\n", n, r.values[n], d.Unit, r.detail[n])
	}
	fmt.Fprintf(w, "  ops %d  failed %d  correct %v\n", r.attempted, r.failed, res.Correct)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
	return res
}

// machine stamps a result with where it was measured.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Link       string `json:"link"`
}

func stampMachine(root string) machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
		Link: "loopback (127.0.0.1), not a real link"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if root != "" {
		// A driver's checkout is not a git repository; "unknown" is fine.
		if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
			if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
				m.Commit = strings.TrimSpace(string(out))
			}
		}
	}
	return m
}

func (m machine) String() string {
	return fmt.Sprintf("cpu %q nproc=%d GOMAXPROCS=%d %s commit=%s; %s", m.CPU, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit, m.Link)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // result and machine hold only plain fields
	}
	return string(b)
}
