// Command bench is the repository's benchmark: seven workloads that measure
// the system end to end and layer by layer, from outside — cmd/lbd as a
// child process on a loopback socket, everything else by timing calls into
// exported functions. See README.md for the workloads, the metrics and how
// they interact, and BENCHMARK.json at the repository root for the
// contract the driver runs it under.
//
//	bench/run.sh --workload serve_closed --seed 1 --seconds 12 --trace 0
//	bench/run.sh                 # every workload, untraced
//	bench/run.sh -trace 1        # then again with span recording on
//	bench/run.sh -aa 10          # ten suite passes; spread against the bounds
//	bench/run.sh -update-goldens # re-pin goldens/ at seed 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

const benchDir = "bench" // BENCHMARK.json's paths[0], relative to the root

func main() {
	var (
		root     = flag.String("root", "", "repository checkout (default: the parent of the working directory when that holds cmd/lbd, else the working directory)")
		workload = flag.String("workload", "", "run this one workload and print its result as the last line (default: every workload, each in a fresh child process)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured part of a run")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
		aa       = flag.Int("aa", 0, "run the untraced suite this many times, on seeds seed..seed+K-1, and compare the spread with the bounds")
		update   = flag.Bool("update-goldens", false, "recompute goldens/ at seed 1 and exit")
		appendTr = flag.Bool("trace-append", false, "append to out/trace.jsonl instead of replacing it (set by the suite for its children)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected argument %q", flag.Arg(0))
	}
	dir, err := findRoot(*root)
	if err != nil {
		fatalf(2, "%v", err)
	}

	switch {
	case *update:
		if err := updateGoldens(filepath.Join(dir, benchDir, "goldens")); err != nil {
			fatalf(1, "update-goldens: %v", err)
		}
	case *workload != "":
		os.Exit(runOne(dir, *workload, *seed, *seconds, *trace == 1, *appendTr))
	case *aa > 0:
		os.Exit(runAA(dir, *aa, *seed, *seconds))
	default:
		os.Exit(runSuite(dir, *seed, *seconds, *trace == 1))
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// findRoot locates the checkout that holds cmd/lbd.
func findRoot(given string) (string, error) {
	candidates := []string{given}
	if given == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "lbd", "main.go")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no cmd/lbd under %q: run from the repository root or pass -root", candidates)
}

// runOne runs one workload in this process and prints its result object as
// the last line of standard output. It returns the exit code: 0 for a
// correct run, 1 for a run whose outputs failed a check, 2 when the
// workload could not run at all (no result is printed then).
func runOne(root, name string, seed uint64, seconds float64, traced, appendTrace bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; known: %s\n", name, strings.Join(allWorkloads, ", "))
		return 2
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	r := newRun(name, seed, seconds, traced, root)
	host := stampMachine(root)
	fmt.Printf("machine: %s\n", host)
	if err := w.Run(r); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 2
	}
	res := r.finish(os.Stdout)
	if r.tr != nil {
		if err := r.tr.flush(filepath.Join(root, benchDir, "out"), name, seed, host, !appendTrace); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		printSelfTimes(os.Stdout, r.tr)
	}
	fmt.Println(mustJSON(res))
	return exitCode(res)
}

// exitCode turns a failed correctness check into a non-zero exit.
func exitCode(res result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

// printSelfTimes prints, per span name, how much of the traced time was
// the layer's own.
func printSelfTimes(w io.Writer, t *tracer) {
	layers, _ := selfTimes(t.spans)
	fmt.Fprintf(w, "  spans: %d  (self = duration minus child spans)\n", len(t.spans))
	for _, name := range sortedKeys(layers) {
		l := layers[name]
		fmt.Fprintf(w, "    %-44s n=%-7d total %10.3f ms  self %10.3f ms\n", name, l.Count, float64(l.Total)/1e6, float64(l.Self)/1e6)
	}
}

// childResult runs one workload in a fresh re-exec'd child, so heap state
// and the RSS high-water mark of one workload do not leak into the next.
func childResult(root, name string, seed uint64, seconds float64, traced, appendTrace bool, echo io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-root", root, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if appendTrace {
		args = append(args, "-trace-append")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if echo != nil {
		fmt.Fprintln(echo, strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s printed no result (%v): %w", name, runErr, err)
	}
	return res, nil
}

// runSuite runs every workload untraced and, if asked, again traced.
func runSuite(root string, seed uint64, seconds float64, traced bool) int {
	code := 0
	t0 := time.Now()
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, mode := range modes {
		for i, name := range allWorkloads {
			res, err := childResult(root, name, seed, seconds, mode, i > 0, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				code = 2
				continue
			}
			if !res.Correct && code == 0 {
				code = 1
			}
		}
	}
	fmt.Printf("suite: %d workloads in %.0f s, exit %d\n", len(allWorkloads), time.Since(t0).Seconds(), code)
	return code
}

// noiseRow is one (workload, metric) cell of an A/A run.
type noiseRow struct {
	Workload  string    `json:"workload"`
	Metric    string    `json:"metric"`
	Unit      string    `json:"unit"`
	Values    []float64 `json:"values"`
	Median    float64   `json:"median"`
	Q1        float64   `json:"q1"`
	Q3        float64   `json:"q3"`
	Spread    float64   `json:"spread"`      // (q3 − q1) / median, the driver's figure
	MaxRelDev float64   `json:"max_rel_dev"` // largest |value − median| / median
	Bound     float64   `json:"bound"`
	Steady    bool      `json:"steady"` // spread below a third of the bound
}

func noiseOf(workload string, d metricDef, values []float64) noiseRow {
	q1, _, q3 := quartiles(values)
	med := median(values)
	row := noiseRow{Workload: workload, Metric: d.Name, Unit: d.Unit, Values: values, Median: med, Q1: q1, Q3: q3,
		Spread: spread(values), Bound: d.Bound}
	for _, v := range values {
		row.MaxRelDev = math.Max(row.MaxRelDev, math.Abs(v-med)/math.Abs(med))
	}
	// setup_s is held to its bound between medians only, not on spread.
	row.Steady = d.Name == "setup_s" || row.Spread < d.Bound/3
	return row
}

// runAA runs the untraced suite k times on the same tree, each pass on its
// own seed as the driver does, and compares every end-to-end metric's
// spread with its bound. The measured spreads go to NOISE.json.
func runAA(root string, k int, seed uint64, seconds float64) int {
	if k < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 passes")
		return 2
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per pass
	code := 0
	for pass := 0; pass < k; pass++ {
		for _, name := range allWorkloads {
			res, err := childResult(root, name, seed+uint64(pass), seconds, false, false, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 2
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: pass %d: %s failed its checks\n", pass, name)
				code = 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: pass %d/%d %s done\n", pass+1, k, name)
		}
	}
	var rows []noiseRow
	fmt.Printf("A/A over %d passes (seeds %d..%d); steady = spread below a third of the bound\n", k, seed, seed+uint64(k)-1)
	fmt.Printf("%-16s %-16s %14s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "maxdev", "bound", "")
	for _, name := range allWorkloads {
		for _, d := range endToEnd {
			row := noiseOf(name, d, values[name][d.Name])
			rows = append(rows, row)
			verdict := "PASS"
			if !row.Steady {
				verdict = "FAIL"
				code = max(code, 1)
			}
			fmt.Printf("%-16s %-16s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %5.0f%%  %s\n",
				name, d.Name, row.Median, row.Q1, row.Q3, 100*row.Spread, 100*row.MaxRelDev, 100*d.Bound, verdict)
		}
	}
	doc := map[string]any{"machine": stampMachine(root), "passes": k, "first_seed": seed, "seconds": seconds, "noise": rows}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(root, benchDir, "NOISE.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: NOISE.json: %v\n", err)
		return 2
	}
	return code
}
