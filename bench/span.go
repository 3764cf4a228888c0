package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the harness made into a layer. Spans of one
// request share Req; Parent is the span that caused this one (0 = none).
// Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Req    uint32 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until flush. A nil *tracer records nothing,
// so untraced runs pay one nil check per call site. recording can be
// switched off and on during a traced run, which is how the run measures
// its own overhead: alternate windows with and without span recording.
type tracer struct {
	mu        sync.Mutex
	t0        time.Time
	spans     []span
	nextID    uint32
	nextReq   uint32
	recording bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), recording: true} }

func (t *tracer) on() bool { return t != nil && t.recording }

// setRecording switches span recording; call it only between windows,
// when no worker is inside a span.
func (t *tracer) setRecording(on bool) {
	if t != nil {
		t.recording = on
	}
}

// newReq allocates a request identifier.
func (t *tracer) newReq() uint32 {
	if !t.on() {
		return 0
	}
	t.mu.Lock()
	t.nextReq++
	r := t.nextReq
	t.mu.Unlock()
	return r
}

// add records a finished span and returns its id, for use as a parent.
func (t *tracer) add(parent, req uint32, name string, start, end time.Time) uint32 {
	id := t.reserve()
	t.put(id, parent, req, name, start, end)
	return id
}

// reserve allocates a span id before the span has ended, so that children
// recorded meanwhile can name it as their parent; finish it with put.
func (t *tracer) reserve() uint32 {
	if !t.on() {
		return 0
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

func (t *tracer) put(id, parent, req uint32, name string, start, end time.Time) {
	if !t.on() || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(parent uint32, name string, fn func(id uint32)) time.Duration {
	id := t.reserve()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.put(id, parent, 0, name, start, end)
	return end.Sub(start)
}

// layerTime is what selfTimes reports per span name.
type layerTime struct {
	Count int
	Total int64 // sum of durations, ns
	Self  int64 // sum of durations minus the part child spans cover, ns
}

// selfTimes computes, per span name, total and self time. A span's self
// time is its duration minus the part of its interval that its children
// cover (children clipped to the parent, overlaps counted once). It also
// returns the worst relative gap between a parent's duration and its self
// time plus the summed durations of its children — zero when children are
// disjoint and inside the parent, positive when they overlap or spill.
func selfTimes(spans []span) (map[string]layerTime, float64) {
	children := map[uint32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	worst := 0.0
	for _, s := range spans {
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, summed int64
		edge := s.Start
		for _, k := range kids {
			summed += k.End - k.Start
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self := dur - covered
		if len(kids) > 0 && dur > 0 {
			gap := float64(self+summed-dur) / float64(dur)
			if gap < 0 {
				gap = -gap
			}
			worst = max(worst, gap)
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += dur
		lt.Self += self
		out[s.Name] = lt
	}
	return out, worst
}

// durationsUS returns the durations in µs of every span with this name.
func (t *tracer) durationsUS(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// flush appends the spans to <dir>/trace.jsonl, one JSON object per line,
// after a header line stamping the workload and the machine.
func (t *tracer) flush(dir, workload string, seed uint64, m machine, truncate bool) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	mode := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if truncate {
		mode = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	f, err := os.OpenFile(filepath.Join(dir, "trace.jsonl"), mode, 0o644)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace: %w", cerr)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	header := map[string]any{"workload": workload, "seed": seed, "spans": len(t.spans), "machine": m}
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for i := range t.spans {
		s := &t.spans[i]
		// Hand-formatted: a few hundred thousand spans through
		// encoding/json's reflection would take longer than the run.
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
