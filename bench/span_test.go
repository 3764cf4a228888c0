package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "write", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "wait", Start: 10, End: 80},
		{ID: 4, Parent: 3, Name: "farm", Start: 30, End: 50},
		{ID: 5, Parent: 1, Name: "read", Start: 80, End: 95},
	}
	got, worst := selfTimes(spans)
	for name, want := range map[string]layerTime{
		"request": {Count: 1, Total: 100, Self: 5},
		"wait":    {Count: 1, Total: 70, Self: 50},
		"farm":    {Count: 1, Total: 20, Self: 20},
		"write":   {Count: 1, Total: 10, Self: 10},
	} {
		if got[name] != want {
			t.Errorf("%s: %+v, want %+v", name, got[name], want)
		}
	}
	if worst != 0 {
		t.Errorf("disjoint children inside the parent: gap %v, want 0", worst)
	}
	// Self times over the tree add up to the root's duration.
	var sum int64
	for _, l := range got {
		sum += l.Self
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestSelfTimeCountsOverlapOnceAndFlagsIt(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 120}, // overlaps a, spills past the parent
	}
	got, worst := selfTimes(spans)
	if got["parent"].Self != 10 {
		t.Errorf("parent self = %d, want 10 (children cover [10,100] once)", got["parent"].Self)
	}
	// self 10 + children 50 + 80 = 140 against a duration of 100.
	if worst < 0.39 || worst > 0.41 {
		t.Errorf("gap = %v, want 0.40", worst)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if tr.on() || tr.newReq() != 0 || tr.reserve() != 0 {
		t.Error("nil tracer should be off")
	}
	ran := false
	tr.timed(0, "x", func(uint32) { ran = true })
	if !ran {
		t.Error("timed must still run the function")
	}
	tr.setRecording(true)
	if tr.durationsUS("x") != nil {
		t.Error("nil tracer has no spans")
	}
}

func TestFlushWritesOneObjectPerLine(t *testing.T) {
	tr := newTracer()
	id := tr.reserve()
	now := time.Now()
	tr.add(id, 7, "child", now, now.Add(time.Millisecond))
	tr.put(id, 0, 7, "parent", now, now.Add(2*time.Millisecond))
	tr.setRecording(false)
	tr.add(0, 0, "dropped", now, now)
	dir := t.TempDir()
	if err := tr.flush(dir, "unit", 1, machine{CPU: "test"}, true); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for line := 0; sc.Scan(); line++ {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		if line == 0 {
			if obj["workload"] != "unit" || obj["spans"] != float64(2) {
				t.Errorf("header = %v", obj)
			}
			continue
		}
		names = append(names, obj["name"].(string))
		if obj["req"] != float64(7) {
			t.Errorf("span %v lost its request id", obj)
		}
	}
	if len(names) != 2 || names[0] != "child" || names[1] != "parent" {
		t.Errorf("spans = %v, want child then parent", names)
	}
}
