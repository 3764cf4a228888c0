// Command lbd runs the live load-balancer daemon: the internal/lb runtime
// behind an HTTP front end, dispatching real concurrent requests across N
// goroutine servers under any of the repository's workload policies. It is
// the "machine" end of the model-to-machine calibration story — the same
// policy implementations, measured in the same units, as the simulator and
// the paper's QBD bounds (see the package documentation of finitelb and
// internal/lb).
//
// Serve mode (default):
//
//	lbd -addr :8080 -n 16 -policy sqd:2 -service exponential -mean-service 5ms
//
//	POST /work[?work=1.5]   dispatch one job (requirement drawn from the
//	                        service law unless given); responds when done,
//	                        429 + Retry-After while the -shed guard is
//	                        refusing admissions
//	GET  /metrics           Prometheus text exposition
//	GET  /debug/jobs        flight-recorder span dump (JSON; ?format=csv),
//	                        404 unless -trace is on
//	POST /debug/chaos       live fault injection (crash/leave/join/slow/
//	                        stall/pause/resume), only with -chaos
//	GET  /healthz           liveness
//
// The listener hangs up on a connection that has not finished its request
// headers within 5 s, closes a keep-alive connection idle for 120 s and
// answers 431 to headers over 16 KiB; a request already admitted is never
// timed out (POST /work answers when its job is done).
//
// -trace N samples one of every N jobs (a power of two; deterministic in
// the job sequence, not the RNG) into a fixed -trace-cap ring of per-job
// lifecycle spans: arrival → picked → enqueued → service start → done,
// with the chosen server and the queue length the pick saw. The spans
// feed /debug/jobs, per-stage delay histograms on /metrics
// (lbd_trace_stage_service_times), and the lbd_trace_jobs_total
// counters. Tracing off (the default) costs nothing on the dispatch path.
//
// When the configured workload is the paper's (SQ(d) with d ≤ N ≤ 16,
// exponential service, unit speeds — an explicit all-ones -speeds counts
// as homogeneous), serve mode also solves the QBD model in the background
// at startup and exposes the analytic bracket for the declared -rho as
// lbd_delay_predicted_{mean,p99}_{lower,upper} gauges — the model line the
// measured mean and p99 gauges should land inside. Both modes find the
// bracket with finitelb's System.StableBounds: T rises from 3 to the first
// stable upper bound, within a block budget of 1200 states.
//
// The failure domain rides along in either mode. -churn replays a
// schedule spec (e.g. -churn 'crash@40,restore@80', times in mean
// service times, servers resolved deterministically from -chaos-seed)
// against the live farm; -retry-budget, -retry-backoff, -deadline and
// -hedge configure how orphaned and late jobs are redelivered, dropped
// or duplicated (see internal/lb). In serve mode, -bgload RHO keeps the
// farm under built-in open-loop pressure so a chaos scenario needs no
// external client, and -shed arms the SLO guard: when the windowed
// measured p99 runs above the model's upper p99 bracket (or the -shed-p99
// override) for consecutive -shed-window periods, /work refuses new jobs
// with 429 until the tail recovers. Every outcome is accounted on
// /metrics as lbd_jobs_total{outcome} beside the lbd_alive_servers and
// lbd_shedding gauges.
//
// SIGINT/SIGTERM stop admission, drain every queued job, and print the
// drain stats. The drain is ordered: background generator first, HTTP
// listener second, farm last — so every accepted job is completed or
// accounted as dropped, never lost to a submitter/drain race.
//
// Load-generator mode drives the farm itself — open-loop arrivals from
// -arrival at utilization -rho — then prints the measured summary and,
// when the workload is the paper's as above with Poisson arrivals, the
// analytic QBD delay bracket the measurement should (and does) land in:
//
//	lbd -loadgen 20000 -n 10 -d 2 -rho 0.9 -arrival poisson -mean-service 2ms
//
// -dispatchers D fans the generated load across D concurrent dispatcher
// goroutines sharing the farm (the multi-front-end model). At N ≥ 64, JSQ
// and LWL route through the hierarchical min-index (see internal/minindex),
// so -n 10000 farms dispatch in O(log N).
//
// -pprof ADDR (e.g. -pprof :6060) serves net/http/pprof on a separate
// listener in either mode, so dispatch-path profiles can be captured from
// a live farm:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"finitelb"
	"finitelb/internal/chaos"
	"finitelb/internal/lb"
	"finitelb/internal/trace"
	"finitelb/internal/workload"
)

// daemon bundles the state the HTTP surface reads: the farm, the service
// law for drawn work, the flight recorder (nil when -trace is off), the
// background model prediction (nil when the workload is off-model), the
// SLO shedding guard (nil when -shed is off), and whether the
// fault-injection endpoint is exposed (-chaos).
type daemon struct {
	farm  *lb.LB
	svc   workload.Service
	seed  uint64
	tr    *trace.Recorder
	pred  *predicted
	shed  *shedder
	chaos bool
}

// bgLoad is the handle on the optional background load generator
// (-bgload): serve mode's way of keeping the farm under open-loop
// pressure without an external client, which is what makes a chaos
// scenario self-contained. stop cancels the generator and waits for it
// to quiesce — the first step of every drain, because shutting the farm
// down under an in-process generator is a race between the drain and
// the next submit.
type bgLoad struct {
	cancel context.CancelFunc
	done   chan struct{}
}

func (b *bgLoad) stop() {
	b.cancel()
	<-b.done
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address (serve mode)")
		n           = flag.Int("n", 8, "number of servers N")
		d           = flag.Int("d", 2, "choices per arrival for the default sqd policy")
		policy      = flag.String("policy", "sqd", "dispatch policy: sqd[:D] | jsq | jiq | lwl | round-robin | random")
		service     = flag.String("service", "exponential", "service law: exponential | deterministic | erlang:K | pareto:ALPHA[,h=H]")
		arrival     = flag.String("arrival", "poisson", "arrival process (loadgen mode): poisson | deterministic | erlang:K | hyperexp:CV2")
		rho         = flag.Float64("rho", 0.8, "per-server utilization (loadgen mode)")
		speeds      = flag.String("speeds", "", "per-server speed factors, e.g. 1x6,4x2 (empty = homogeneous)")
		queueCap    = flag.Int("queue-cap", 4096, "per-server queue bound, including the job in service")
		meanService = flag.Duration("mean-service", 5*time.Millisecond, "wall-clock length of one unit of work")
		warmup      = flag.Int64("warmup", 0, "completions excluded from statistics")
		seed        = flag.Uint64("seed", 1, "RNG seed for sampling choices and drawn workloads")
		loadgen     = flag.Int64("loadgen", 0, "run the built-in load generator for this many jobs and exit (0 = serve HTTP)")
		dispatchers = flag.Int("dispatchers", 1, "concurrent dispatcher goroutines sharing the farm (loadgen mode)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060); empty = off")
		traceEvery  = flag.Int("trace", 0, "trace 1 of every N jobs into the flight recorder (rounded to a power of two; 0 = off)")
		traceCap    = flag.Int("trace-cap", 4096, "flight-recorder ring capacity in spans (rounded to a power of two)")

		retryBudget  = flag.Int("retry-budget", 0, "redeliveries per job orphaned by churn (0 = default 3, negative = no redelivery)")
		retryBackoff = flag.Duration("retry-backoff", 0, "base of the jittered exponential redelivery backoff (0 = immediate)")
		deadline     = flag.Duration("deadline", 0, "drop a job whose service has not started this long after arrival (0 = none)")
		hedge        = flag.Duration("hedge", 0, "duplicate a job to a second server if service has not started within this (0 = off)")

		churnSpec = flag.String("churn", "", "churn schedule to replay, e.g. 'crash@40,restore@80' (times in mean service times; unassigned servers resolved from -chaos-seed)")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for resolving -churn events onto servers (internal/chaos.Resolve)")
		chaosOn   = flag.Bool("chaos", false, "expose POST /debug/chaos live fault injection (serve mode)")
		shedOn    = flag.Bool("shed", false, "refuse admissions with 429 while the windowed p99 runs above the predicted bracket (serve mode)")
		shedP99   = flag.Float64("shed-p99", 0, "explicit p99 shedding ceiling in mean service times (0 = the model's upper p99 bracket)")
		shedWin   = flag.Duration("shed-window", time.Second, "evaluation window of the shedding guard")
		bgRho     = flag.Float64("bgload", 0, "drive the farm with a built-in open-loop generator at this per-server utilization (serve mode; 0 = off)")
	)
	flag.Parse()

	pol, err := workload.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	if s, ok := pol.(workload.SQD); pol == nil || (ok && s.D == 0) {
		pol = workload.SQD{D: *d}
	}
	svc, err := workload.ParseService(*service)
	if err != nil {
		fatal(err)
	}
	if svc == nil {
		svc = workload.Exponential{}
	}
	arr, err := workload.ParseArrival(*arrival)
	if err != nil {
		fatal(err)
	}
	spd, err := workload.ParseSpeeds(*speeds, *n)
	if err != nil {
		fatal(err)
	}

	var batch int64
	if *loadgen > 0 {
		// Scale the CI batches to the run so even short smokes report a
		// finite half-width.
		batch = max(*loadgen/(20*int64(*n)), 10)
	}
	var rec *trace.Recorder
	if *traceEvery > 0 {
		rec = trace.New(trace.Config{
			Sample: *traceEvery,
			Cap:    *traceCap,
			Seed:   *seed,
			Scale:  float64(meanService.Nanoseconds()),
		})
	}
	farm, err := lb.New(lb.Config{
		N:            *n,
		Policy:       pol,
		Speeds:       spd,
		QueueCap:     *queueCap,
		MeanService:  *meanService,
		Warmup:       *warmup,
		BatchSize:    batch,
		Seed:         *seed,
		Trace:        rec,
		RetryBudget:  *retryBudget,
		RetryBackoff: *retryBackoff,
		Deadline:     *deadline,
		Hedge:        *hedge,
	})
	if err != nil {
		fatal(err)
	}

	// Resolve the churn schedule up front so a typo fails the launch, not
	// the run.
	churn, err := resolveChurn(*churnSpec, *chaosSeed, *n)
	if err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	if *loadgen > 0 {
		if churn != nil {
			go replayChurn(farm, churn)
		}
		if err := runLoadGen(farm, arr, svc, pol, spd, *n, *rho, *loadgen, *seed, *dispatchers); err != nil {
			fatal(err)
		}
		return
	}

	dm := &daemon{
		farm:  farm,
		svc:   svc,
		seed:  *seed,
		tr:    rec,
		pred:  newPredicted(pol, svc, spd, *n, *rho),
		chaos: *chaosOn,
	}
	if *shedOn {
		dm.shed = newShedder(farm.Recorder(), dm.pred, *shedP99, *shedWin, 0)
		go dm.shed.run()
	}
	var bg *bgLoad
	if *bgRho > 0 {
		bg = startBgLoad(farm, arr, svc, *bgRho, *seed)
	}
	if churn != nil {
		go replayChurn(farm, churn)
	}
	serve(dm, *addr, bg)
}

// resolveChurn parses -churn and pins every event to a server with the
// deterministic chaos resolver; nil spec means no churn.
func resolveChurn(spec string, seed uint64, n int) ([]workload.ChurnEvent, error) {
	c, err := workload.ParseChurn(spec)
	if err != nil || c == nil {
		return nil, err
	}
	return chaos.Resolve(c, seed, n)
}

// replayChurn runs the resolved schedule against the live farm,
// reporting (not dying on) injections the farm refuses.
func replayChurn(farm *lb.LB, events []workload.ChurnEvent) {
	if err := farm.RunChurn(events); err != nil && err != lb.ErrClosed {
		fmt.Fprintln(os.Stderr, "lbd: churn:", err)
	}
}

// startBgLoad launches the in-process open-loop generator. The job
// budget is effectively unbounded; the generator runs until stop.
func startBgLoad(farm *lb.LB, arr workload.Arrival, svc workload.Service, rho float64, seed uint64) *bgLoad {
	ctx, cancel := context.WithCancel(context.Background())
	bg := &bgLoad{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(bg.done)
		_, err := farm.RunLoadGen(ctx, lb.GenConfig{
			Arrival: arr, Service: svc, Rho: rho, Jobs: 1 << 62, Seed: seed,
		})
		if err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "lbd: bgload:", err)
		}
	}()
	return bg
}

// servePprof runs the opt-in profiling listener. It is deliberately a
// separate server on a separate address: profiles are an operator
// surface, not something to expose on the farm's public port.
func servePprof(addr string) {
	fmt.Printf("lbd: pprof on %s\n", addr)
	if err := pprofServer(addr).ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "lbd: pprof:", err)
	}
}

// pprofServer builds the profiling listener with the public listener's
// limits, and likewise no write timeout: profile?seconds=N streams for as
// long as it was asked to. Split out for tests.
func pprofServer(addr string) *http.Server { return newServer(addr, pprofMux()) }

// pprofMux builds the net/http/pprof handler explicitly (rather than
// through the package's DefaultServeMux side effects); split out for
// tests.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// runLoadGen drives the farm and prints the measurement next to the
// analytic bracket where one exists.
func runLoadGen(farm *lb.LB, arr workload.Arrival, svc workload.Service, pol workload.Policy, spd []float64, n int, rho float64, jobs int64, seed uint64, dispatchers int) error {
	fmt.Printf("offering %d jobs: %s arrivals at ρ=%g, %s service, policy %s, %d dispatcher(s)\n",
		jobs, specName(arr, "poisson"), rho, svc, pol, max(dispatchers, 1))
	t0 := time.Now()
	s, err := farm.RunLoadGen(context.Background(), lb.GenConfig{
		Arrival: arr, Service: svc, Rho: rho, Jobs: jobs, Seed: seed, Dispatchers: dispatchers,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	if _, err := farm.Shutdown(context.Background()); err != nil {
		return err
	}
	fmt.Printf("\nlive measurement (%d jobs measured, %v wall, %.0f jobs/s):\n",
		s.Jobs, elapsed.Round(time.Millisecond), float64(s.Completed)/elapsed.Seconds())
	fmt.Printf("  mean delay   %.4f ± %.4f service times (wait %.4f)\n", s.MeanDelay, s.HalfWidth, s.MeanWait)
	fmt.Printf("  p50/p95/p99/p999  %.3f / %.3f / %.3f / %.3f\n", s.P50, s.P95, s.P99, s.P999)
	fmt.Printf("  max queue %d, rejected %d, realized service %.3f× nominal\n", s.MaxQueue, s.Rejected, s.MeanService)
	if tr := farm.Trace(); tr != nil {
		fmt.Printf("  flight recorder: %d of %d jobs traced (1/%d), %d spans in ring, %d dropped, %d aborted\n",
			tr.Sampled(), tr.Seen(), tr.SampleEvery(), tr.Published(), tr.Dropped(), tr.Aborted())
	}

	if line := bracketLine(arr, pol, svc, spd, n, rho); line != "" {
		fmt.Printf("\n%s\n", line)
	}
	return nil
}

// bracketLine is load-generator mode's model line: the paper's bracket
// when the run was on-model with Poisson arrivals, the reason there is
// none when the walk fails, and "" for a workload the model does not
// cover.
func bracketLine(arr workload.Arrival, pol workload.Policy, svc workload.Service, spd []float64, n int, rho float64) string {
	d, ok := paperModel(pol, svc, spd, n)
	if !ok || specName(arr, "poisson") != "poisson" {
		return ""
	}
	sys, err := finitelb.NewSystem(n, d, rho)
	if err != nil {
		return "" // e.g. an invalid -rho
	}
	b, t, err := sys.StableBounds(maxPredictBlock)
	if err != nil {
		return fmt.Sprintf("(no QBD bracket at ρ=%g: %v)", rho, err)
	}
	return fmt.Sprintf("paper's QBD bracket for SQ(%d), N=%d, ρ=%g at T=%d: [%.4f, %.4f]; asymptotic %.4f",
		d, n, rho, t, b.Lower.MeanDelay, b.Upper.MeanDelay, sys.AsymptoticDelay())
}

func specName(a workload.Arrival, def string) string {
	if a == nil {
		return def
	}
	return a.String()
}

// Listener limits. Without them a client that opens a socket and never
// finishes its request headers holds a goroutine (and a descriptor) for
// the life of the process. There is deliberately no whole-request read or
// write timeout: POST /work carries no body and answers only when its job
// is done, which a saturated farm may take arbitrarily long over.
const (
	readHeaderTimeout = 5 * time.Second   // first byte to end of headers
	idleTimeout       = 120 * time.Second // keep-alive wait between requests
	maxHeaderBytes    = 16 << 10          // net/http answers 431 beyond it
)

// newServer builds the farm's public listener; split out for tests.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// serve runs the HTTP front end until SIGINT/SIGTERM, then drains.
func serve(d *daemon, addr string, bg *bgLoad) {
	srv := newServer(addr, newMux(d))
	go func() {
		fmt.Printf("lbd listening on %s (N=%d)\n", addr, d.farm.N())
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	<-stop
	fmt.Println("lbd: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := drainAll(ctx, d, srv, bg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbd: drain:", err)
	}
	fmt.Printf("lbd: drained: %d completed, %d dropped, %d rejected, %d abandoned\n",
		st.Completed, st.Dropped, st.Rejected, st.Abandoned)
}

// drainAll stops the daemon's moving parts in dependency order: first
// the in-process load generator (no new jobs from inside), then the
// HTTP listener (no new jobs from outside, in-flight /work handlers run
// to completion), and only then the farm itself. Draining the farm
// before silencing its submitters is a race — the generator's next
// submit lands on a closing farm and is miscounted as a lifetime
// rejection — which is exactly what TestDrainUnderBackgroundLoad pins.
func drainAll(ctx context.Context, d *daemon, srv *http.Server, bg *bgLoad) (lb.DrainStats, error) {
	if bg != nil {
		bg.stop()
	}
	if d.shed != nil {
		d.shed.close()
	}
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "lbd: http shutdown:", err)
		}
	}
	return d.farm.Shutdown(ctx)
}

// newMux wires the HTTP surface; split out for tests.
func newMux(d *daemon) http.Handler {
	farm, svc := d.farm, d.svc
	drawRNG := rand.New(rand.NewPCG(d.seed, 0x2545f4914f6cdd1d))
	var drawMu sync.Mutex
	mux := http.NewServeMux()

	mux.HandleFunc("POST /work", func(w http.ResponseWriter, r *http.Request) {
		if d.shed != nil && d.shed.Active() {
			// The SLO guard is tripped: refuse before touching the farm,
			// book the shed, and tell the client when to come back.
			farm.Recorder().NoteShed()
			w.Header().Set("Retry-After", strconv.Itoa(int(d.shed.RetryAfter()/time.Second)))
			http.Error(w, "farm over SLO; shedding load", http.StatusTooManyRequests)
			return
		}
		work := 0.0
		if q := r.URL.Query().Get("work"); q != "" {
			// The farm's own checkWork range, enforced at the door so
			// inf/nan/overflow never reach Do.
			var err error
			if work, err = strconv.ParseFloat(q, 64); err != nil || !(work > 0) || work > 1e9 {
				http.Error(w, "work must be a number in (0, 1e9]", http.StatusBadRequest)
				return
			}
		} else {
			drawMu.Lock()
			work = svc.Sample(drawRNG)
			drawMu.Unlock()
		}
		done, err := farm.Do(r.Context(), work)
		switch err {
		case nil:
		case lb.ErrQueueFull, lb.ErrClosed:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		default:
			if r.Context().Err() != nil {
				return // client went away; the job still completes
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// Headers are already written; an encode failure here means the
		// client hung up and there is no different response to send.
		_ = json.NewEncoder(w).Encode(map[string]any{
			"server":     done.Server,
			"work":       work,
			"service_ms": float64(done.Service) / 1e6,
			"sojourn_ms": float64(done.Sojourn) / 1e6,
		})
	})

	mux.HandleFunc("GET /metrics", d.metricsHandler)
	mux.HandleFunc("GET /debug/jobs", d.debugJobsHandler)
	if d.chaos {
		mux.HandleFunc("/debug/chaos", d.chaosHandler)
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbd:", err)
	os.Exit(1)
}
