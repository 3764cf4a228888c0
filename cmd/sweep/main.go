// Command sweep explores the trade-offs the paper highlights: the
// accuracy/complexity trade-off of the upper bound in T (Section V's first
// observation), the stability frontier of the upper-bound model, and —
// beyond the paper's means — the finite-N occupancy tails against
// Mitzenmacher's asymptotic fixed point, plus a simulation sweep over the
// pluggable workload/policy grid that the analytic models cannot reach.
//
// Usage:
//
//	sweep -mode accuracy -n 3 -d 2 -rho 0.8 -tmax 6
//	sweep -mode stability -n 3 -d 2 -tmax 5
//	sweep -mode tails -n 3 -d 2 -rho 0.9
//	sweep -mode sim -n 10 -d 2 -rhos 0.7,0.9 -policies sqd,jsq,jiq,rr,random \
//	      -arrival hyperexp:cv2=4 -service pareto:alpha=1.5 -jobs 1e6
//
// The sim mode emits CSV (deterministic for a fixed seed, bit-identical
// for any -workers count thanks to the engine's submission-order merge).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"finitelb"
	"finitelb/internal/engine"
	"finitelb/internal/plot"
	"finitelb/internal/statespace"
	"finitelb/internal/workload"
)

func main() {
	var (
		mode    = flag.String("mode", "accuracy", "accuracy | stability | tails | sim")
		n       = flag.Int("n", 3, "number of servers N")
		d       = flag.Int("d", 2, "choices per arrival d")
		rho     = flag.Float64("rho", 0.8, "utilization (accuracy and tails modes)")
		tmax    = flag.Int("tmax", 5, "largest threshold T to sweep")
		workers = flag.Int("workers", 0, "concurrent grid cells (0 = GOMAXPROCS)")

		rhos     = flag.String("rhos", "", "comma list of utilizations (sim mode; default -rho)")
		policies = flag.String("policies", "sqd,jsq,jiq,rr,random", "comma list of dispatch policies (sim mode): sqd[:D] jsq jiq lwl rr random")
		arrival  = flag.String("arrival", "poisson", "arrival process: poisson | deterministic | erlang:K | hyperexp:CV2")
		service  = flag.String("service", "exponential", "service law: exponential | deterministic | erlang:K | pareto:ALPHA[,h=H]")
		speeds   = flag.String("speeds", "", "per-server speed factors, e.g. 1x8,4x2 (sim mode; empty = homogeneous)")
		jobs     = flag.Float64("jobs", 200_000, "measured jobs per sim cell")
		seed     = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Usage = usage
	flag.Parse()

	switch *mode {
	case "accuracy":
		if *tmax < 1 {
			fatalUsage(fmt.Errorf("-tmax %d must be ≥ 1", *tmax))
		}
		if _, err := finitelb.NewSystem(*n, *d, *rho); err != nil {
			fatalUsage(err)
		}
		if err := accuracy(os.Stdout, *n, *d, *rho, *tmax); err != nil {
			fatal(err)
		}
	case "stability":
		if *tmax < 1 {
			fatalUsage(fmt.Errorf("-tmax %d must be ≥ 1", *tmax))
		}
		if err := stability(*n, *d, *tmax, *workers); err != nil {
			fatal(err)
		}
	case "tails":
		if _, err := finitelb.NewSystem(*n, *d, *rho); err != nil {
			fatalUsage(err)
		}
		if err := tails(os.Stdout, *n, *d, *rho); err != nil {
			fatal(err)
		}
	case "sim":
		cfg := simCfg{
			n: *n, d: *d,
			rhos:     *rhos,
			policies: *policies,
			arrival:  *arrival,
			service:  *service,
			speeds:   *speeds,
			jobs:     int64(*jobs),
			seed:     *seed,
			workers:  *workers,
		}
		if cfg.rhos == "" {
			cfg.rhos = strconv.FormatFloat(*rho, 'g', -1, 64)
		}
		// simSweep front-loads all spec validation, so an error here is
		// overwhelmingly a malformed flag — show the grammar with it.
		if err := simSweep(os.Stdout, cfg); err != nil {
			fatalUsage(err)
		}
	default:
		fatalUsage(fmt.Errorf("unknown mode %q", *mode))
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: sweep -mode <accuracy|stability|tails|sim> [flags]

Explores the paper's trade-offs and, in sim mode, the pluggable
workload/policy grid beyond the analytic models' reach.

  sweep -mode accuracy -n 3 -d 2 -rho 0.8 -tmax 6
  sweep -mode stability -n 3 -d 2 -tmax 5
  sweep -mode tails -n 3 -d 2 -rho 0.9
  sweep -mode sim -n 10 -d 2 -rhos 0.7,0.9 -policies sqd,jsq,jiq,rr,random \
        -arrival hyperexp:cv2=4 -service pareto:alpha=1.5 -jobs 1e6

Spec grammar (sim mode):
  -policies   comma list of: sqd[:D] | jsq | jiq | lwl | rr | random
  -arrival    poisson | deterministic | erlang:K | hyperexp:CV2
  -service    exponential | deterministic | erlang:K | pareto:ALPHA[,h=H]
  -speeds     COUNTxFACTOR[,COUNTxFACTOR...], e.g. 1x8,4x2 (empty = homogeneous)
  -rhos       comma list of utilizations in (0,1)

Flags:
`)
	flag.PrintDefaults()
}

// simCfg is the sim-mode grid: every policy at every utilization, one
// workload, fixed seed.
type simCfg struct {
	n, d             int
	rhos             string // comma list
	policies         string // comma list
	arrival, service string
	speeds           string
	jobs             int64
	seed             uint64
	workers          int
}

// simSweep runs the policy × utilization grid through the engine pool and
// writes one CSV row per cell. Rows come out in submission order and every
// cell is seeded from the fixed -seed, so output is bit-identical for any
// worker count — the guarantee the golden-file test pins.
func simSweep(out io.Writer, cfg simCfg) error {
	// Validate the whole configuration before submitting anything: the
	// engine pool does not cancel jobs already started, so a bad spec
	// discovered per-cell would burn the full grid's simulation budget
	// first. After this block the only per-cell failures left are
	// impossible-by-construction.
	if cfg.jobs < 1 || cfg.jobs > 1e15 {
		return fmt.Errorf("-jobs %d outside [1, 1e15]", cfg.jobs)
	}
	pols := strings.Split(cfg.policies, ",")
	for i, p := range pols {
		pols[i] = strings.TrimSpace(p)
		if pols[i] == "" {
			return fmt.Errorf("empty entry in -policies %q", cfg.policies)
		}
		pol, err := workload.ParsePolicy(pols[i])
		if err != nil {
			return err
		}
		if sq, ok := pol.(workload.SQD); ok && sq.D == 0 {
			pol = workload.SQD{D: cfg.d} // "sqd" inherits -d, as Simulate will resolve it
		}
		if pol != nil {
			if _, err := pol.NewPicker(cfg.n); err != nil {
				return err
			}
		}
	}
	if _, err := workload.ParseArrival(cfg.arrival); err != nil {
		return err
	}
	if _, err := workload.ParseService(cfg.service); err != nil {
		return err
	}
	if _, err := workload.ParseSpeeds(cfg.speeds, cfg.n); err != nil {
		return err
	}
	var rhoVals []float64
	for _, s := range strings.Split(cfg.rhos, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad -rhos entry %q", s)
		}
		if _, err := finitelb.NewSystem(cfg.n, cfg.d, v); err != nil {
			return err
		}
		rhoVals = append(rhoVals, v)
	}
	type cell struct {
		policy string
		rho    float64
		res    finitelb.SimResult
	}
	cells, err := engine.Collect(engine.New(cfg.workers), len(pols)*len(rhoVals), func(i int) (cell, error) {
		c := cell{policy: pols[i/len(rhoVals)], rho: rhoVals[i%len(rhoVals)]}
		sys, err := finitelb.NewSystem(cfg.n, cfg.d, c.rho)
		if err != nil {
			return c, err
		}
		c.res, err = sys.Simulate(finitelb.SimOptions{
			Jobs: cfg.jobs, Seed: cfg.seed,
			Arrival: cfg.arrival, Service: cfg.service, Policy: c.policy, Speeds: cfg.speeds,
		})
		return c, err
	})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(out, "policy,arrival,service,n,d,rho,jobs,seed,mean_delay,half_width,p50,p95,p99,max_queue"); err != nil {
		return err
	}
	for _, c := range cells {
		if _, err := fmt.Fprintf(out, "%s,%s,%s,%d,%d,%g,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n",
			csvField(c.policy), csvField(cfg.arrival), csvField(cfg.service), cfg.n, cfg.d, c.rho, cfg.jobs, cfg.seed,
			c.res.MeanDelay, c.res.HalfWidth, c.res.P50, c.res.P95, c.res.P99, c.res.MaxQueue); err != nil {
			return err
		}
	}
	return nil
}

// csvField quotes a spec string per RFC 4180 when it contains CSV
// metacharacters — "pareto:alpha=1.5,h=100" must stay one column.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// tails compares the finite-N server-occupancy tail (exact solve) with
// Mitzenmacher's asymptotic fixed point and with the bound models' tails —
// the distributional extension of the paper's mean-delay comparison.
func tails(out io.Writer, n, d int, rho float64) error {
	sys, err := finitelb.NewSystem(n, d, rho)
	if err != nil {
		return err
	}
	exact, dist, err := sys.ExactDistribution(0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "P(server holds ≥ k jobs): finite N=%d vs asymptotic, SQ(%d), ρ=%g\n\n", n, d, rho)
	var rows [][]string
	for k := 0; k <= 8; k++ {
		asy := finitelb.AsymptoticQueueTail(d, rho, k)
		fin := dist.ServerTail(k)
		if fin == 0 && asy < 1e-12 {
			break
		}
		rows = append(rows, []string{
			fmt.Sprint(k),
			fmt.Sprintf("%.6f", fin),
			fmt.Sprintf("%.6f", asy),
			fmt.Sprintf("%+.1f%%", (asy-fin)/math.Max(fin, 1e-300)*100),
		})
	}
	if err := plot.Table(out, []string{"k", "finite-N", "asymptotic", "asym error"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nsojourn (exact): mean=%.4f p50=%.3f p95=%.3f p99=%.3f\n",
		exact.MeanDelay, dist.Quantile(0.50), dist.Quantile(0.95), dist.Quantile(0.99))
	return nil
}

// accuracy sweeps T and reports both bounds, their gap, the block size
// C(N+T−1, T) (the paper's "exponential cost"), and wall time.
func accuracy(out io.Writer, n, d int, rho float64, tmax int) error {
	sys, err := finitelb.NewSystem(n, d, rho)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "upper/lower bound accuracy vs T for SQ(%d), N=%d, ρ=%g; asymptotic %.4f (Eq. 16, N → ∞)\n\n",
		d, n, rho, sys.AsymptoticDelay())
	var rows [][]string
	for t := 1; t <= tmax; t++ {
		start := time.Now()
		lo, err := sys.LowerBound(t)
		if err != nil {
			return err
		}
		row := []string{
			fmt.Sprint(t),
			fmt.Sprint(statespace.BinomialInt(n+t-1, t)),
			fmt.Sprintf("%.4f", lo.MeanDelay),
		}
		hi, err := sys.UpperBound(t)
		switch {
		case errors.Is(err, finitelb.ErrUnstable):
			row = append(row, "unstable", "-")
		case err != nil:
			return err
		default:
			row = append(row,
				fmt.Sprintf("%.4f", hi.MeanDelay),
				fmt.Sprintf("%.4f", hi.MeanDelay-lo.MeanDelay))
		}
		row = append(row, time.Since(start).Round(time.Microsecond).String())
		rows = append(rows, row)
	}
	return plot.Table(out,
		[]string{"T", "block", "lower", "upper", "gap", "time"}, rows)
}

// stability locates, for each T, the largest utilization (on a 0.01 grid)
// at which the upper-bound model is still stable. Every (T, ρ) cell is an
// independent solve, so the whole grid goes through the engine pool and
// the per-T frontiers are reduced from the deterministically ordered
// results.
func stability(n, d, tmax, workers int) error {
	fmt.Printf("upper-bound stability frontier for SQ(%d), N=%d\n\n", d, n)
	const steps = 99 // ρ ∈ {0.01, …, 0.99}
	type cell struct {
		t      int
		rho    float64
		stable bool
	}
	cells, err := engine.Collect(engine.New(workers), tmax*steps, func(i int) (cell, error) {
		c := cell{t: 1 + i/steps, rho: float64(1+i%steps) / 100}
		sys, err := finitelb.NewSystem(n, d, c.rho)
		if err != nil {
			return c, err
		}
		_, err = sys.UpperBound(c.t)
		switch {
		case err == nil:
			c.stable = true
			return c, nil
		case errors.Is(err, finitelb.ErrUnstable):
			return c, nil // the frontier is the last stable ρ
		default:
			return c, err
		}
	})
	if err != nil {
		return err
	}
	frontier := make([]float64, tmax+1)
	for _, c := range cells {
		if c.stable && c.rho > frontier[c.t] {
			frontier[c.t] = c.rho
		}
	}
	var rows [][]string
	for t := 1; t <= tmax; t++ {
		rows = append(rows, []string{fmt.Sprint(t), fmt.Sprintf("%.2f", frontier[t])})
	}
	if err := plot.Table(os.Stdout, []string{"T", "max stable ρ"}, rows); err != nil {
		return err
	}
	fmt.Println("\n(the real system is stable for every ρ < 1; the shrinkage is the price of the bound)")
	return nil
}

// fatal reports a runtime failure (a solver or engine breakdown) without
// usage noise.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	os.Exit(1)
}

// fatalUsage reports a bad flag or spec with the grammar and exits 2,
// matching the flag package's own exit code for undefined flags.
func fatalUsage(err error) {
	fmt.Fprintf(os.Stderr, "sweep: %v\n\n", err)
	usage()
	os.Exit(2)
}
