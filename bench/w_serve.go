package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"
)

const (
	serveN       = 8   // servers in the lbd child
	serveClients = 2   // connections, one request in flight each
	serveWarm    = 200 // warm-up requests per set-up
	serveSetups  = 3   // set-ups per run; setup_s is their median
)

// workClient posts /work on one keep-alive connection, checks each reply
// and records the request's spans.
type workClient struct {
	addr string
	c    *conn
}

func newWorkClient(addr string) (*workClient, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &workClient{addr: addr, c: c}, nil
}

// post sends one request and, when tr is not nil, records its spans. ok is
// false for a transport error, a status other than 200, a body that does
// not parse, or a server outside [0, N). After a transport error the
// connection is replaced.
func (w *workClient) post(req []byte, tr *tracer) (rep workReply, t reqTimes, ok bool) {
	status, body, t, err := w.c.do(req)
	if err != nil {
		w.c.close()
		if c, derr := dial(w.addr); derr == nil {
			w.c = c
		}
		return rep, t, false
	}
	if status != 200 || json.Unmarshal(body, &rep) != nil || rep.Server < 0 || rep.Server >= serveN {
		return rep, t, false
	}
	if tr.on() {
		end := time.Now() // the read span includes parsing the body
		rid := tr.newReq()
		id := tr.reserve()
		tr.add(id, rid, "http.write", t.start, t.written)
		wait := tr.add(id, rid, "http.wait", t.written, t.firstByte)
		// The farm's own share of the wait, as the response reports it;
		// where inside the wait it fell is not observable from outside,
		// so it is centred.
		sojourn := time.Duration(rep.SojournMS * 1e6)
		service := min(time.Duration(rep.ServiceMS*1e6), sojourn)
		if gap := t.firstByte.Sub(t.written) - sojourn; gap >= 0 {
			s0 := t.written.Add(gap / 2)
			tr.add(wait, rid, "farm.wait", s0, s0.Add(sojourn-service))
			tr.add(wait, rid, "farm.service", s0.Add(sojourn-service), s0.Add(sojourn))
		}
		tr.add(id, rid, "http.read", t.firstByte, end)
		tr.put(id, 0, rid, "http.request", t.start, end)
	}
	return rep, t, true
}

// stopChecked stops a child and applies the drain checks: exit 0, nothing
// abandoned, and every accepted job completed or dropped. accepted < 0
// skips the ledger equality (the daemon's own generator also submits).
func stopChecked(r *run, c *child, accepted int64) drained {
	d, err := c.stop()
	if err != nil {
		r.problem("%v", err)
		return d
	}
	if d.Abandoned != 0 {
		r.problem("lbd drain abandoned %d jobs", d.Abandoned)
	}
	if accepted >= 0 && d.Completed+d.Dropped != accepted {
		r.problem("lbd ledger: %d completed + %d dropped != %d accepted", d.Completed, d.Dropped, accepted)
	}
	return d
}

// serveSetup starts lbd serveSetups times, timing each from spawn to the
// end of the warm-up, and keeps the last child for the measured phase. It
// returns that child and the requests it has accepted so far.
func serveSetup(r *run, bin string, args []string) (*child, int64, error) {
	var c *child
	reqs := [][]byte{request("POST", "/work", "lbd"), request("POST", "/work?work=1", "lbd")}
	for rep := 0; rep < serveSetups; rep++ {
		if c != nil {
			stopChecked(r, c, -1)
		}
		err := r.setup(func() error {
			var err error
			if c, err = startLBD(bin, args...); err != nil {
				return err
			}
			wc, err := newWorkClient(c.addr)
			if err != nil {
				return err
			}
			defer wc.c.close()
			for i := 0; i < serveWarm; i++ {
				if _, _, ok := wc.post(reqs[i%2], nil); !ok {
					return fmt.Errorf("warm-up request %d failed\nstderr: %s", i, c.stderr.String())
				}
			}
			return nil
		})
		if err != nil {
			if c != nil {
				c.kill()
			}
			return nil, 0, err
		}
	}
	return c, serveWarm, nil
}

// serveEpilogue reports what both serve workloads read off the child once
// the measured phase is over, then stops it and applies the drain checks.
func serveEpilogue(r *run, c *child, accepted, measuredJobs int64, cpu0, selfCPU0 time.Duration, buildTook time.Duration) {
	childCPU, harnessCPU := c.cpu()-cpu0, selfCPU()-selfCPU0
	if measuredJobs > 0 {
		r.set("lbd.cpu_us_per_job", float64(childCPU.Microseconds())/float64(measuredJobs))
	}
	if total := childCPU + harnessCPU; total > 0 {
		r.set("harness.client_cpu_share", float64(harnessCPU)/float64(total))
	}
	m, err := c.scrape()
	if err != nil {
		r.problem("final scrape: %v", err)
	} else {
		r.set("lbd.gc_cycles", m["lbd_go_gc_cycles_total"])
		r.set("lbd.heap_objects_mb", m["lbd_go_heap_objects_bytes"]/(1<<20))
		r.set("lbd.sched_latency_p99_us", m[`lbd_go_sched_latency_seconds{q="0.99"}`]*1e6)
		if accepted >= 0 {
			if got := int64(m[`lbd_jobs_total{outcome="completed"}`] + m[`lbd_jobs_total{outcome="dropped"}`]); got != accepted {
				r.problem("/metrics ledger: completed+dropped = %d, accepted %d", got, accepted)
			}
		}
	}
	r.set("lbd.start_to_listen_ms", float64(c.listenAfter.Microseconds())/1e3)
	r.set("lbd.predicted_ready_s", c.readyAfter.Seconds())
	r.set("harness.build_s", buildTook.Seconds())
	d := stopChecked(r, c, accepted)
	r.set("lbd.drain_ms", float64(d.Took.Microseconds())/1e3)
	r.set("lbd.peak_rss_mb", d.MaxRSSMB)
	r.spanLayerMetrics()
}

// spanLayerMetrics turns the client-side request spans into the per-layer
// medians that say where a round trip goes.
func (r *run) spanLayerMetrics() {
	if r.tr == nil {
		return
	}
	for _, m := range []struct{ metric, span string }{
		{"lbd.req_write_p50_us", "http.write"},
		{"lbd.req_wait_p50_us", "http.wait"},
		{"lbd.req_read_p50_us", "http.read"},
	} {
		if d := r.tr.durationsUS(m.span); len(d) > 0 {
			r.set(m.metric, median(d))
		}
	}
}

// closedWindow runs one closed-loop window: every client sends req back to
// back until the deadline. It returns the round-trip times in µs of the
// requests that succeeded, the farm sojourns they reported, and the
// failure count.
func closedWindow(clients []*workClient, req []byte, tr *tracer, length time.Duration) (rate float64, rtts, sojourns []float64, failed int64) {
	var wg sync.WaitGroup
	type part struct {
		rtts, sojourns []float64
		failed         int64
	}
	parts := make([]part, len(clients))
	t0 := time.Now()
	deadline := t0.Add(length)
	for i, wc := range clients {
		wg.Add(1)
		go func(p *part, wc *workClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rep, t, ok := wc.post(req, tr)
				if !ok {
					p.failed++
					continue
				}
				p.rtts = append(p.rtts, float64(t.done.Sub(t.start))/1e3)
				p.sojourns = append(p.sojourns, rep.SojournMS*1e3)
			}
		}(&parts[i], wc)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, p := range parts {
		rtts = append(rtts, p.rtts...)
		sojourns = append(sojourns, p.sojourns...)
		failed += p.failed
	}
	return float64(len(rtts)) / elapsed.Seconds(), rtts, sojourns, failed
}

// runServeClosed: zero-work jobs through lbd, closed loop, two request
// forms in alternating one-second windows.
func runServeClosed(r *run) error {
	bin, buildTook, err := buildLBD(r.root)
	if err != nil {
		return err
	}
	args := []string{"-n", strconv.Itoa(serveN), "-policy", "sqd:2", "-mean-service", "1ns", "-seed", strconv.FormatUint(r.seed, 10)}
	c, accepted, err := serveSetup(r, bin, args)
	if err != nil {
		return err
	}
	clients := make([]*workClient, serveClients)
	for i := range clients {
		if clients[i], err = newWorkClient(c.addr); err != nil {
			c.kill()
			return err
		}
		defer clients[i].c.close()
	}

	forms := []struct {
		name string
		req  []byte
	}{{"drawn", request("POST", "/work", "lbd")}, {"explicit", request("POST", "/work?work=1", "lbd")}}
	windows := r.alternatingWindows()     // one second each, alternating forms
	rates := map[string][]float64{}       // form → per-window jobs/s (span recording off, or untraced run)
	tracedRates := map[string][]float64{} // same, windows with span recording on
	rttsByForm := map[string][]float64{}
	var rtts, sojourns []float64
	cpu0, selfCPU0 := c.cpu(), selfCPU()
	var measured int64
	for w := 0; w < windows; w++ {
		form := forms[w%2]
		// In a traced run span recording alternates in pairs of windows,
		// so each form is measured both ways within the run.
		recording := r.traced && (w/2)%2 == 0
		var tr *tracer
		if recording {
			tr = r.tr
		}
		rate, wr, ws, failed := closedWindow(clients, form.req, tr, time.Second)
		r.ops(int64(len(wr))+failed, failed)
		accepted += int64(len(wr))
		measured += int64(len(wr))
		if recording {
			tracedRates[form.name] = append(tracedRates[form.name], rate)
		} else {
			rates[form.name] = append(rates[form.name], rate)
		}
		rtts = append(rtts, wr...)
		sojourns = append(sojourns, ws...)
		rttsByForm[form.name] = append(rttsByForm[form.name], wr...)
	}

	drawn, explicit := summarize(rates["drawn"]), summarize(rates["explicit"])
	r.setStat("lbd.drawn_jobs_per_s", drawn)
	r.setStat("lbd.explicit_jobs_per_s", explicit)
	r.set("ops_per_s", geomean(drawn.Median, explicit.Median))
	r.set("latency_p50_us", median(rtts))
	tv, tp := tail(rtts)
	r.set("latency_tail_us", tv)
	r.detail["latency_tail_us"] = fmt.Sprintf("p%g of %d round trips", tp, len(rtts))
	r.set("lb.farm_sojourn_p50_us", median(sojourns))
	if r.traced {
		on := geomean(median(tracedRates["drawn"]), median(tracedRates["explicit"]))
		off := geomean(drawn.Median, explicit.Median)
		r.set("harness.trace_overhead_pct.serve_closed", 100*(off-on)/off)

		// The floor under a /work round trip: the same socket, server
		// stack and client with a handler that does nothing.
		health := request("GET", "/healthz", "lbd")
		var hz []float64
		for i := 0; i < 2000; i++ {
			status, _, t, err := clients[0].c.do(health)
			r.ops(1, 0)
			if err != nil || status != 200 {
				r.ops(0, 1)
				continue
			}
			hz = append(hz, float64(t.done.Sub(t.start))/1e3)
		}
		floor := median(hz)
		r.set("lbd.healthz_rtt_p50_us", floor)
		r.set("lbd.work_minus_healthz_p50_us.drawn", median(rttsByForm["drawn"])-floor)
		r.set("lbd.work_minus_healthz_p50_us.explicit", median(rttsByForm["explicit"])-floor)
	}
	serveEpilogue(r, c, accepted, measured, cpu0, selfCPU0, buildTook)
	return nil
}

const (
	// 200 probes a second: enough samples in a run for a p50 and a p99
	// that repeat within a few percent, at +0.05 on the farm's ρ.
	probeInterval = 5 * time.Millisecond
	// A probe takes about 4 ms, so two connections would be busy half the
	// time and probes would queue in the harness; four idle ones cost
	// nothing.
	probeClients = 4
	probeScrapes = 20
)

// runServeProbe: lbd keeps itself at ρ=0.7 with 2 ms jobs; the harness
// sends an open-loop probe on a fixed timeline and times each probe from
// its due instant.
func runServeProbe(r *run) error {
	bin, buildTook, err := buildLBD(r.root)
	if err != nil {
		return err
	}
	args := []string{"-n", strconv.Itoa(serveN), "-policy", "sqd:2", "-rho", "0.7", "-bgload", "0.7",
		"-mean-service", "2ms", "-seed", strconv.FormatUint(r.seed, 10)}
	c, _, err := serveSetup(r, bin, args)
	if err != nil {
		return err
	}
	clients := make([]*workClient, probeClients)
	for i := range clients {
		if clients[i], err = newWorkClient(c.addr); err != nil {
			c.kill()
			return err
		}
		defer clients[i].c.close()
	}

	before, err := c.scrape()
	if err != nil {
		c.kill()
		return fmt.Errorf("scrape before probing: %w", err)
	}
	cpu0, selfCPU0 := c.cpu(), selfCPU()
	n := max(10, int(r.seconds/probeInterval.Seconds()))
	sched := schedule{Start: time.Now().Add(5 * time.Millisecond), Interval: probeInterval, N: n}
	tickets := make(chan ticket, n) // room for the whole schedule: the pacer never blocks on a slow probe
	type sample struct {
		latency, overhead, late, sojournMS, serviceMS float64
		recorded                                      bool
	}
	parts := make([][]sample, len(clients))
	var failed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	req := request("POST", "/work", "lbd")
	for i, wc := range clients {
		wg.Add(1)
		go func(i int, wc *workClient) {
			defer wg.Done()
			for tk := range tickets {
				// In a traced run span recording alternates in blocks
				// of 100 probes, so the run can price it.
				var tr *tracer
				if (tk.I/100)%2 == 0 {
					tr = r.tr
				}
				rep, t, ok := wc.post(req, tr)
				if !ok {
					mu.Lock()
					failed++
					mu.Unlock()
					continue
				}
				parts[i] = append(parts[i], sample{
					latency:   float64(t.done.Sub(tk.Due)) / 1e3,
					overhead:  float64(t.done.Sub(t.start))/1e3 - rep.SojournMS*1e3,
					late:      float64(lateness(tk.Due, t.start)) / 1e3,
					sojournMS: rep.SojournMS,
					serviceMS: rep.ServiceMS,
					recorded:  tr.on(),
				})
			}
		}(i, wc)
	}
	t0 := time.Now()
	pace(wallClock{}, sched, func(tk ticket) { tickets <- tk })
	close(tickets)
	wg.Wait()
	elapsed := time.Since(t0)
	after, err := c.scrape()
	if err != nil {
		c.kill()
		return fmt.Errorf("scrape after probing: %w", err)
	}

	var lat, over, overRecorded, late, wait, sojourn, service []float64
	for _, p := range parts {
		for _, s := range p {
			lat = append(lat, s.latency)
			if s.recorded {
				overRecorded = append(overRecorded, s.overhead)
			} else {
				over = append(over, s.overhead)
			}
			late = append(late, s.late)
			wait = append(wait, s.sojournMS-s.serviceMS)
			sojourn = append(sojourn, s.sojournMS)
			service = append(service, s.serviceMS)
		}
	}
	r.ops(int64(n), failed)
	const done = `lbd_jobs_total{outcome="completed"}`
	farmJobs := int64(after[done] - before[done])
	r.set("ops_per_s", float64(farmJobs)/elapsed.Seconds())
	r.detail["ops_per_s"] = "jobs the farm completed per second while probed (its own generator plus the probes)"
	r.set("latency_p50_us", median(lat))
	tv, tp := tail(lat)
	r.set("latency_tail_us", tv)
	r.detail["latency_tail_us"] = fmt.Sprintf("p%g of %d probes, due instant to response", tp, len(lat))
	r.set("lbd.probe_overhead_p50_us", median(over))
	r.set("harness.late_p50_us", median(late))
	r.set("harness.late_p99_us", percentile(late, 99))
	r.set("lb.wait_p50_ms", median(wait))
	r.set("lb.service_p50_ms", median(service))
	r.set("lb.farm_sojourn_p50_us", 1e3*median(sojourn))
	r.set("lb.service_realized_ratio", after["lbd_service_realized_ratio"])
	r.set("lb.mean_delay_svc", after["lbd_delay_mean_service_times"])
	if hi, ok := after["lbd_delay_predicted_mean_upper"]; ok {
		r.set("lb.delay_minus_upper_svc", after["lbd_delay_mean_service_times"]-hi)
	} else {
		r.problem("lbd exposes no predicted upper bracket at rho=0.7")
	}

	// Reads beside writes on the recorder: scrape while the daemon's own
	// generator keeps the farm loaded.
	var scrapes []float64
	for i := 0; i < probeScrapes; i++ {
		var err error
		took := r.tr.timed(0, "lbd.metrics_scrape", func(uint32) { _, err = c.scrape() })
		r.ops(1, 0)
		if err != nil {
			r.ops(0, 1)
			continue
		}
		scrapes = append(scrapes, float64(took.Microseconds())/1e3)
	}
	r.set("lbd.metrics_scrape_p50_ms", median(scrapes))
	if r.traced {
		// What recording adds to a probe's client-side overhead, as a
		// share of the median probe latency.
		r.set("harness.trace_overhead_pct.serve_probe", 100*(median(overRecorded)-median(over))/median(lat))
	}
	serveEpilogue(r, c, -1, farmJobs, cpu0, selfCPU0, buildTook)
	return nil
}
