package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"finitelb"
	"finitelb/internal/lb"
	"finitelb/internal/trace"
	"finitelb/internal/workload"
)

// tracedDaemon builds a farm with the flight recorder on (every job
// traced) and a synchronously solved model prediction, so one scrape
// exercises every metric family the daemon can emit.
func tracedDaemon(t *testing.T) *daemon {
	t.Helper()
	mean := 100 * time.Microsecond
	rec := trace.New(trace.Config{Sample: 1, Cap: 1024, Scale: float64(mean.Nanoseconds())})
	farm, err := lb.New(lb.Config{N: 4, MeanService: mean, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		farm.Shutdown(ctx)
	})
	pred := &predicted{}
	pred.solve(4, 2, 0.7)
	return &daemon{farm: farm, svc: workload.Exponential{}, seed: 1, tr: rec, pred: pred}
}

// TestMetricsConformance is the exposition-format contract: every sample
// on /metrics belongs to a family whose HELP and TYPE were declared
// exactly once, ahead of the samples; histogram samples only use the
// _bucket/_sum/_count suffixes and carry a +Inf bucket.
func TestMetricsConformance(t *testing.T) {
	d := tracedDaemon(t)
	mux := newMux(d)
	for i := 0; i < 30; i++ {
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

	type family struct {
		typ           string
		help, samples int
	}
	families := map[string]*family{}
	infSeen := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			f := families[name]
			if f == nil {
				f = &family{}
				families[name] = f
			}
			if f.help++; f.help > 1 {
				t.Errorf("family %s: HELP declared %d times", name, f.help)
			}
			if f.samples > 0 {
				t.Errorf("family %s: HELP after samples", name)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			name, typ := fields[2], fields[3]
			f := families[name]
			if f == nil || f.help == 0 {
				t.Errorf("family %s: TYPE without preceding HELP", name)
				f = &family{}
				families[name] = f
			}
			if f.typ != "" {
				t.Errorf("family %s: TYPE declared twice", name)
			}
			f.typ = typ
		case strings.HasPrefix(line, "#"):
			// other comments are legal
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			fam, suffix := name, ""
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, sfx); base != name {
					if f, ok := families[base]; ok && f.typ == "histogram" {
						fam, suffix = base, sfx
						break
					}
				}
			}
			f, ok := families[fam]
			if !ok || f.typ == "" {
				t.Errorf("sample %q has no declared family", line)
				continue
			}
			if f.typ == "histogram" && suffix == "" {
				t.Errorf("histogram family %s has unsuffixed sample %q", fam, line)
			}
			f.samples++
			if suffix == "_bucket" && strings.Contains(line, `le="+Inf"`) {
				infSeen[fam] = true
			}
		}
	}
	for name, f := range families {
		if f.samples == 0 {
			t.Errorf("family %s declared but has no samples", name)
		}
		if f.typ == "histogram" && !infSeen[name] {
			t.Errorf("histogram family %s has no +Inf bucket", name)
		}
	}
	// The tentpole families must actually be present on a traced,
	// on-model daemon.
	for _, want := range []string{
		"lbd_trace_jobs_total", "lbd_trace_stage_service_times",
		"lbd_delay_predicted_mean_lower", "lbd_delay_predicted_mean_upper",
		"lbd_delay_predicted_p99_lower", "lbd_delay_predicted_p99_upper",
		"lbd_go_gc_cycles_total", "lbd_go_goroutines", "lbd_go_sched_latency_seconds",
	} {
		if families[want] == nil {
			t.Errorf("family %s missing from a traced on-model scrape", want)
		}
	}
}

// TestPredictedGaugesOrdered: the model gauges must form a bracket.
func TestPredictedGaugesOrdered(t *testing.T) {
	pred := &predicted{}
	pred.solve(3, 2, 0.8)
	snap, ready := pred.snapshot()
	if !ready || snap.failed != "" {
		t.Fatalf("predicted solve not ready or failed: %+v", snap)
	}
	if !(snap.meanLo <= snap.meanHi) || !(snap.meanLo > 1) {
		t.Errorf("mean bracket [%v, %v] malformed", snap.meanLo, snap.meanHi)
	}
	if !snap.tailP99 || !(snap.p99Lo <= snap.p99Hi) || !(snap.p99Lo > snap.meanLo) {
		t.Errorf("p99 bracket [%v, %v] malformed against mean %v", snap.p99Lo, snap.p99Hi, snap.meanLo)
	}
	if snap.t < 3 {
		t.Errorf("threshold %d below the starting T", snap.t)
	}
}

// TestWalkBoundsPastUnstableT: at ρ = 0.98 the N = 3 upper-bound chain is
// unstable through T = 4, so the walk both modes share must keep raising
// T inside the block budget, and report the instability once the budget
// runs out.
func TestWalkBoundsPastUnstableT(t *testing.T) {
	sys, err := finitelb.NewSystem(3, 2, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	b, T, err := walkBounds(sys, maxPredictBlock)
	if err != nil || T < 5 || !(b.Lower.MeanDelay <= b.Upper.MeanDelay) {
		t.Errorf("walk: T=%d bracket [%v, %v] err %v, want a bracket at T ≥ 5", T, b.Lower.MeanDelay, b.Upper.MeanDelay, err)
	}
	if _, _, err := walkBounds(sys, 15); !errors.Is(err, finitelb.ErrUnstable) { // C(6,4) = 15: stops after T = 4
		t.Errorf("walk on a T ≤ 4 budget: %v, want ErrUnstable", err)
	}
}

// TestPredictedOffModel: workloads outside the paper's assumptions get no
// prediction at all.
func TestPredictedOffModel(t *testing.T) {
	if p := newPredicted(workload.JSQ{}, workload.Exponential{}, nil, 4, 0.8); p != nil {
		t.Error("JSQ got a QBD prediction")
	}
	if p := newPredicted(workload.SQD{D: 2}, workload.DeterministicService{}, nil, 4, 0.8); p != nil {
		t.Error("deterministic service got a QBD prediction")
	}
	if p := newPredicted(workload.SQD{D: 2}, workload.Exponential{}, []float64{1, 2}, 2, 0.8); p != nil {
		t.Error("heterogeneous farm got a QBD prediction")
	}
	if p := newPredicted(workload.SQD{D: 2}, workload.Exponential{}, nil, 64, 0.8); p != nil {
		t.Error("N=64 got a QBD prediction")
	}
}

// TestDebugJobsEndpoint: the span dump must decode, reconcile stage sums
// with sojourns, honor ?max and ?format=csv, and 404 when tracing is off.
func TestDebugJobsEndpoint(t *testing.T) {
	d := tracedDaemon(t)
	mux := newMux(d)
	const jobs = 40
	for i := 0; i < jobs; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/work?work=1", nil))
		if rec.Code != 200 {
			t.Fatalf("POST /work: %d", rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jobs", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/jobs: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		SampleEvery int       `json:"sample_every"`
		Seen        uint64    `json:"seen"`
		Published   uint64    `json:"published"`
		Spans       []jobSpan `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SampleEvery != 1 || resp.Seen != jobs || len(resp.Spans) != jobs {
		t.Fatalf("sample_every=%d seen=%d spans=%d, want 1/%d/%d",
			resp.SampleEvery, resp.Seen, len(resp.Spans), jobs, jobs)
	}
	for _, sp := range resp.Spans {
		if sp.Server < 0 || sp.Server >= 4 {
			t.Fatalf("span server %d out of range", sp.Server)
		}
		stages := (sp.Picked - sp.Arrival) + (sp.Enqueue - sp.Picked) + sp.Wait + sp.Service
		if diff := math.Abs(stages - sp.Sojourn); diff > 1e-6*(1+sp.Sojourn) {
			t.Fatalf("stage sums %v don't reconcile with sojourn %v", stages, sp.Sojourn)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jobs?max=5", nil))
	var capped struct {
		Spans []jobSpan `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &capped); err != nil {
		t.Fatal(err)
	}
	if len(capped.Spans) != 5 {
		t.Errorf("?max=5 returned %d spans", len(capped.Spans))
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jobs?max=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("?max=bogus: %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jobs?format=csv", nil))
	if rec.Code != 200 || !strings.HasPrefix(rec.Body.String(), "seq,server,qlen,ties,") {
		t.Errorf("csv dump: %d %q", rec.Code, firstLine(rec.Body))
	}
	if lines := strings.Count(strings.TrimSpace(rec.Body.String()), "\n"); lines != jobs {
		t.Errorf("csv dump has %d data rows, want %d", lines, jobs)
	}

	// Tracing off → 404.
	plain := newMux(&daemon{farm: testFarm(t), svc: workload.Exponential{}, seed: 1})
	rec = httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jobs", nil))
	if rec.Code != 404 {
		t.Errorf("untraced /debug/jobs: %d, want 404", rec.Code)
	}
}

func firstLine(b *bytes.Buffer) string {
	s := b.String()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestPromWriterEnforcement: misuse is caught at construction time.
func TestPromWriterEnforcement(t *testing.T) {
	var buf bytes.Buffer
	p := newPromWriter(&buf)
	p.Sample("", nil, "%d", 1)
	if p.Err() == nil {
		t.Error("sample before any family accepted")
	}

	p = newPromWriter(&buf)
	p.Family("x_total", "counter", "a counter")
	p.Family("x_total", "counter", "again")
	if p.Err() == nil {
		t.Error("re-declared family accepted")
	}

	p = newPromWriter(&buf)
	p.Family("g", "gauge", "a gauge")
	p.Sample("_bucket", nil, "%d", 1)
	if p.Err() == nil {
		t.Error("suffixed sample on a gauge accepted")
	}

	p = newPromWriter(&buf)
	p.Family("h", "histogram", "a histogram")
	p.Sample("", nil, "%d", 1)
	if p.Err() == nil {
		t.Error("unsuffixed sample on a histogram accepted")
	}
}

// TestLabelEscaping: the three escaped characters, directly and through
// the writer.
func TestLabelEscaping(t *testing.T) {
	if got, want := escapeLabel("a\"b\\c\nd"), `a\"b\\c\nd`; got != want {
		t.Errorf("escapeLabel = %q, want %q", got, want)
	}
	if got, want := escapeHelp("50% \\ of\nthis"), `50% \\ of\nthis`; got != want {
		t.Errorf("escapeHelp = %q, want %q", got, want)
	}
	var buf bytes.Buffer
	p := newPromWriter(&buf)
	p.Family("m", "gauge", "line one\nline two")
	p.Sample("", []label{{"path", `C:\tmp "x"` + "\n"}}, "%d", 7)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP m line one\nline two`) {
		t.Errorf("HELP not escaped: %q", out)
	}
	if !strings.Contains(out, `m{path="C:\\tmp \"x\"\n"} 7`) {
		t.Errorf("label not escaped: %q", out)
	}
}
