package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const sampleExposition = `# HELP lbd_jobs_total Jobs by outcome (completed | requeued | retried | shed | dropped).
# TYPE lbd_jobs_total counter
lbd_jobs_total{outcome="completed"} 1200
lbd_jobs_total{outcome="dropped"} 0
lbd_delay_mean_service_times 2.0130
lbd_delay_service_times_bucket{le="+Inf"} 1180
lbd_delay_service_times_bucket{le="1.5 e"} 7
lbd_go_sched_latency_seconds{q="0.99"} 1.152e-06
lbd_delay_predicted_ready 1

`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`lbd_jobs_total{outcome="completed"}`:        1200,
		`lbd_jobs_total{outcome="dropped"}`:          0,
		`lbd_delay_mean_service_times`:               2.013,
		`lbd_delay_service_times_bucket{le="+Inf"}`:  1180,
		`lbd_delay_service_times_bucket{le="1.5 e"}`: 7, // a space inside a label value
		`lbd_go_sched_latency_seconds{q="0.99"}`:     1.152e-06,
		`lbd_delay_predicted_ready`:                  1,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if len(m) != 7 {
		t.Errorf("parsed %d samples, want 7 (comments skipped)", len(m))
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"lbd_x", "lbd_x{a=\"b\"}", "lbd_x notanumber"} {
		if _, err := parseMetrics(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestDrainLine(t *testing.T) {
	m := drainLine.FindStringSubmatch("lbd: draining...\nlbd: drained: 204708 completed, 1 dropped, 2 rejected, 0 abandoned\n")
	if m == nil || m[1] != "204708" || m[2] != "1" || m[3] != "2" || m[4] != "0" {
		t.Errorf("drain line parsed as %v", m)
	}
}

// The raw client against a real net/http server: keep-alive reuse, status,
// body and ordered instants.
func TestConnDo(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if r.URL.Path == "/missing" {
			http.Error(w, "nope", http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, `{"server":%d,"work":1,"service_ms":0.5,"sojourn_ms":1.5}`, hits)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for i := 1; i <= 3; i++ {
		status, body, tm, err := c.do(request("POST", "/work", "lbd"))
		if err != nil || status != 200 {
			t.Fatalf("request %d: status %d err %v", i, status, err)
		}
		if want := fmt.Sprintf(`{"server":%d,"work":1,"service_ms":0.5,"sojourn_ms":1.5}`, i); string(body) != want {
			t.Errorf("request %d: body %q, want %q", i, body, want)
		}
		if tm.written.Before(tm.start) || tm.firstByte.Before(tm.written) || tm.done.Before(tm.firstByte) {
			t.Errorf("request %d: instants out of order: %+v", i, tm)
		}
	}
	status, body, _, err := c.do(request("GET", "/missing", "lbd"))
	if err != nil || status != 404 || !strings.Contains(string(body), "nope") {
		t.Errorf("404 path: status %d body %q err %v", status, body, err)
	}
}

// A reply outside the farm, or one that is not JSON, is a failed request.
func TestPostRejectsBadReplies(t *testing.T) {
	reply := ""
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, reply) }))
	defer srv.Close()
	wc, err := newWorkClient(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer wc.c.close()
	req := request("POST", "/work", "lbd")
	for _, c := range []struct {
		reply string
		ok    bool
	}{
		{`{"server":3,"work":1,"service_ms":1e-6,"sojourn_ms":0.003}`, true},
		{`{"server":8,"work":1,"service_ms":1e-6,"sojourn_ms":0.003}`, false}, // serveN servers: 0..7
		{`{"server":-1,"work":1}`, false},
		{`not json`, false},
	} {
		reply = c.reply
		if _, _, ok := wc.post(req, nil); ok != c.ok {
			t.Errorf("reply %q: ok = %v, want %v", c.reply, ok, c.ok)
		}
	}
}
