package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"finitelb/internal/lb"
	"finitelb/internal/workload"
)

func testFarm(t *testing.T) *lb.LB {
	t.Helper()
	farm, err := lb.New(lb.Config{N: 4, MeanService: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := farm.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return farm
}

func TestWorkEndpoint(t *testing.T) {
	mux := newMux(&daemon{farm: testFarm(t), svc: workload.Exponential{}, seed: 1})

	// Explicit work.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/work?work=2.5", nil))
	if rec.Code != 200 {
		t.Fatalf("POST /work: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Server    int     `json:"server"`
		Work      float64 `json:"work"`
		ServiceMS float64 `json:"service_ms"`
		SojournMS float64 `json:"sojourn_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Work != 2.5 || resp.ServiceMS != 0.25 {
		t.Errorf("work %v service %vms, want 2.5 / 0.25ms", resp.Work, resp.ServiceMS)
	}
	if resp.SojournMS < resp.ServiceMS {
		t.Errorf("sojourn %vms below service %vms", resp.SojournMS, resp.ServiceMS)
	}

	// Drawn work.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/work", nil))
	if rec.Code != 200 {
		t.Fatalf("POST /work (drawn): %d %s", rec.Code, rec.Body)
	}

	// Invalid work.
	for _, q := range []string{
		"?work=-1", "?work=0", "?work=banana",
		"?work=1.5abc", "?work=2%203", "?work=1e3x", // trailing garbage
		"?work=inf", "?work=nan", "?work=1e400", "?work=2e9", // outside (0, 1e9]
	} {
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/work"+q, nil))
		if rec.Code != 400 {
			t.Errorf("POST /work%s: %d, want 400", q, rec.Code)
		}
	}

	// Wrong method.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/work", nil))
	if rec.Code == 200 {
		t.Error("GET /work accepted")
	}
}

func TestMetricsAndHealth(t *testing.T) {
	farm := testFarm(t)
	mux := newMux(&daemon{farm: farm, svc: workload.Exponential{}, seed: 1})
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/work?work=1", nil))
		if rec.Code != 200 {
			t.Fatalf("POST /work: %d", rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"lbd_jobs_completed_total 20",
		"lbd_jobs_rejected_total 0",
		"lbd_jobs_total{outcome=\"completed\"} 20",
		"lbd_jobs_total{outcome=\"dropped\"} 0",
		"lbd_alive_servers 4",
		"lbd_delay_mean_service_times ",
		"lbd_delay_quantile_service_times{q=\"0.99\"}",
		"lbd_delay_quantile_service_times{q=\"0.999\"}",
		"lbd_delay_service_times_bucket{le=\"+Inf\"} 20",
		"lbd_delay_service_times_count 20",
		"lbd_service_realized_ratio ",
		"lbd_queue_length{server=\"3\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("GET /healthz: %d %q", rec.Code, rec.Body)
	}
}

// TestPprofEndpoint covers the -pprof surface: the explicit mux must
// serve the pprof index and the profile subpages.
func TestPprofEndpoint(t *testing.T) {
	mux := pprofMux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/pprof/: %d", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "goroutine") || !strings.Contains(body, "heap") {
		t.Errorf("pprof index missing profile links:\n%s", body)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/goroutine?debug=1", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("GET /debug/pprof/goroutine: %d %q", rec.Code, rec.Body.String()[:min(120, rec.Body.Len())])
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("GET /debug/pprof/cmdline: %d", rec.Code)
	}

	// The profiling mux must stay off the serve-mode mux: operators opt in
	// with -pprof on a separate listener.
	rec = httptest.NewRecorder()
	newMux(&daemon{farm: testFarm(t), svc: workload.Exponential{}, seed: 1}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code == 200 {
		t.Error("serve-mode mux exposes /debug/pprof/ without -pprof")
	}
}

// TestPprofListenerLimits: the -pprof listener carries the public
// listener's header, idle and header-size limits, and no write timeout,
// since profile?seconds=N streams.
func TestPprofListenerLimits(t *testing.T) {
	srv := pprofServer(":6060")
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.MaxHeaderBytes != maxHeaderBytes {
		t.Errorf("pprof listener limits: header %v, idle %v, header bytes %d; want %v, %v, %d",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes, readHeaderTimeout, idleTimeout, maxHeaderBytes)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("pprof listener has read/write timeouts %v/%v; a streamed profile would be cut", srv.ReadTimeout, srv.WriteTimeout)
	}
	rec := httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Errorf("pprof listener does not serve the pprof mux: GET /debug/pprof/ %d", rec.Code)
	}
}

// TestListenerLimits drives newServer on a loopback socket with three raw
// connections: one sends half a request line and then nothing — the
// server must hang up on it (readHeaderTimeout; before the limits it was
// held open forever); one sends headers past maxHeaderBytes and is answered
// 431; one is a keep-alive connection that sits idle while the first one
// times out — far less than idleTimeout — and must still be served on its
// second request. The test sleeps readHeaderTimeout once and asserts only
// that the close happens, not when.
func TestListenerLimits(t *testing.T) {
	srv := newServer("", newMux(&daemon{farm: testFarm(t), svc: workload.Exponential{}, seed: 1}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	dial := func() net.Conn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(readHeaderTimeout + 20*time.Second))
		return c
	}
	healthz := func(c net.Conn, br *bufio.Reader) {
		t.Helper()
		if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: lbd\r\n\r\n"); err != nil {
			t.Fatalf("keep-alive write: %v", err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("keep-alive read: %v", err)
		}
		_, err = io.Copy(io.Discard, resp.Body) // drained so the connection can be reused
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d, body read: %v", resp.StatusCode, err)
		}
	}

	half := dial()
	if _, err := io.WriteString(half, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	keep := dial()
	keepR := bufio.NewReader(keep)
	healthz(keep, keepR)

	big := dial()
	// The server may answer and hang up before the whole request is
	// written, so only the answer is checked.
	_, _ = io.WriteString(big, "GET /healthz HTTP/1.1\r\nHost: lbd\r\nX-Pad: "+strings.Repeat("a", 4*maxHeaderBytes)+"\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(big), nil)
	if err != nil {
		t.Fatalf("oversized headers: %v", err)
	}
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("oversized headers: status %d, want 431", resp.StatusCode)
	}

	// The stalled connection: reading to EOF returns only once the server
	// has hung up (net/http takes the timed-out fragment for a malformed
	// request line and says 400 first; a stall between header lines gets
	// no answer at all).
	reply, err := io.ReadAll(half)
	if err != nil {
		t.Fatalf("half-sent request line not closed by the server: %v", err)
	}
	if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 4") {
		t.Errorf("half-sent request line answered %q", reply)
	}
	healthz(keep, keepR)
}

// TestDrainUnderBackgroundLoad pins the shutdown ordering: with the
// in-process generator still offering load, drainAll must first stop
// the generator, then the farm — every accepted job ends completed or
// dropped, none abandoned, and the drain itself returns no error. The
// old path shut the farm down with submitters live, racing the drain
// against the generator's next dispatch.
func TestDrainUnderBackgroundLoad(t *testing.T) {
	farm, err := lb.New(lb.Config{N: 4, MeanService: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	dm := &daemon{farm: farm, svc: workload.Exponential{}, seed: 1}
	dm.shed = newShedder(farm.Recorder(), nil, 0, 50*time.Millisecond, 0)
	go dm.shed.run()
	bg := startBgLoad(farm, nil, nil, 0.5, 7)
	time.Sleep(300 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := drainAll(ctx, dm, nil, bg)
	if err != nil {
		t.Fatalf("drainAll: %v", err)
	}
	if st.Completed == 0 {
		t.Error("background generator completed no jobs before the drain")
	}
	if st.Abandoned != 0 {
		t.Errorf("%d jobs abandoned by an ordered drain", st.Abandoned)
	}
	// The generator was silenced before the farm closed, so nothing was
	// offered to a closing farm.
	o := farm.Recorder().Outcomes()
	if got := o.Completed + o.Dropped; got != st.Completed+st.Dropped {
		t.Errorf("outcome ledger %d ≠ drain stats %d", got, st.Completed+st.Dropped)
	}
}

// TestChaosEndpoint covers the -chaos surface: injection round-trips,
// membership accounting, refusal semantics, and the default-off gate.
func TestChaosEndpoint(t *testing.T) {
	farm := testFarm(t)
	mux := newMux(&daemon{farm: farm, svc: workload.Exponential{}, seed: 1, chaos: true})

	post := func(q string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/chaos?"+q, nil))
		return rec
	}
	var status struct {
		N        int  `json:"n"`
		Alive    int  `json:"alive"`
		Shedding bool `json:"shedding"`
	}

	rec := post("action=crash&server=1")
	if rec.Code != 200 {
		t.Fatalf("crash: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.N != 4 || status.Alive != 3 {
		t.Errorf("after crash: n=%d alive=%d, want 4/3", status.N, status.Alive)
	}

	// Crashing a down server is a refusal, not a repeat.
	if rec = post("action=crash&server=1"); rec.Code != 409 {
		t.Errorf("double crash: %d, want 409", rec.Code)
	}
	if rec = post("action=join&server=1"); rec.Code != 200 {
		t.Fatalf("join: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.Alive != 4 {
		t.Errorf("after join: alive=%d, want 4", status.Alive)
	}
	if rec = post("action=explode&server=0"); rec.Code != 400 {
		t.Errorf("unknown action: %d, want 400", rec.Code)
	}
	if rec = post("action=crash&server=banana"); rec.Code != 400 {
		t.Errorf("bad server: %d, want 400", rec.Code)
	}

	// GET reports status without mutating.
	getRec := httptest.NewRecorder()
	mux.ServeHTTP(getRec, httptest.NewRequest("GET", "/debug/chaos", nil))
	if getRec.Code != 200 {
		t.Errorf("GET status: %d", getRec.Code)
	}

	// Without -chaos the endpoint must not exist.
	offRec := httptest.NewRecorder()
	newMux(&daemon{farm: testFarm(t), svc: workload.Exponential{}, seed: 1}).
		ServeHTTP(offRec, httptest.NewRequest("POST", "/debug/chaos?action=crash&server=0", nil))
	if offRec.Code != 404 {
		t.Errorf("chaos endpoint without -chaos: %d, want 404", offRec.Code)
	}
}

// TestShedGuardGatesAdmission steps the SLO guard by hand: two breached
// windows trip it, /work then bounces with 429 + Retry-After and books
// the shed, and one healthy (empty) window reopens admission.
func TestShedGuardGatesAdmission(t *testing.T) {
	farm := testFarm(t)
	dm := &daemon{farm: farm, svc: workload.Exponential{}, seed: 1}
	// Ceiling far below any real sojourn (≥ 1 service time), so every
	// nonempty window breaches.
	dm.shed = newShedder(farm.Recorder(), nil, 1e-4, time.Second, 2)
	mux := newMux(dm)

	work := func() int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/work?work=1", nil))
		return rec.Code
	}
	for i := 0; i < 5; i++ {
		if code := work(); code != 200 {
			t.Fatalf("healthy /work: %d", code)
		}
	}
	dm.shed.tick() // breach 1 of 2: still open
	if dm.shed.Active() {
		t.Fatal("guard tripped after one breached window")
	}
	if code := work(); code != 200 {
		t.Fatalf("/work after one breach: %d", code)
	}
	dm.shed.tick() // breach 2 of 2: shedding
	if !dm.shed.Active() {
		t.Fatal("guard did not trip after two breached windows")
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/work?work=1", nil))
	if rec.Code != 429 {
		t.Fatalf("shedding /work: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := farm.Recorder().Outcomes().Shed; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	mRec := httptest.NewRecorder()
	mux.ServeHTTP(mRec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{"lbd_shedding 1", "lbd_jobs_total{outcome=\"shed\"} 1", "lbd_slo_p99_ceiling_service_times 0.0001"} {
		if !strings.Contains(mRec.Body.String(), want) {
			t.Errorf("/metrics missing %q while shedding", want)
		}
	}

	// Admission closed ⇒ the next window is empty ⇒ the guard reopens.
	dm.shed.tick()
	if dm.shed.Active() {
		t.Fatal("guard did not reopen on an empty window")
	}
	if code := work(); code != 200 {
		t.Errorf("/work after recovery: %d", code)
	}
}

// TestBusyFarmReturns503: a full bounded queue surfaces as 503, the
// admission-control contract.
func TestBusyFarmReturns503(t *testing.T) {
	farm, err := lb.New(lb.Config{N: 1, QueueCap: 1, MeanService: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Shutdown(context.Background())
	mux := newMux(&daemon{farm: farm, svc: workload.Exponential{}, seed: 1})

	// Occupy the single queue slot with a long fire-and-forget job; the
	// next request must bounce with 503.
	if err := farm.Dispatch(10); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/work?work=1", nil))
	if rec.Code != 503 {
		t.Fatalf("POST /work against a full queue: %d, want 503", rec.Code)
	}
}
