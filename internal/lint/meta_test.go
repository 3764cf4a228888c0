package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"testing"
)

// TestHotPathCoversAllocFreeEventPath pins the contract between the
// hotpath analyzer and the measured guarantee: every function on the
// event path that TestAllocFreeEventPath (internal/sim/loop_test.go)
// proves allocation-free must carry the //finitelb:hotpath directive, so
// a regression is reported at the offending line by the linter before
// the benchmark harness ever notices the extra allocation.
//
// The table names functions per file; the test parses the real sources
// and fails if any listed function has lost its annotation.
func TestHotPathCoversAllocFreeEventPath(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	internalDir := filepath.Dir(filepath.Dir(self)) // .../internal

	required := map[string][]string{
		// The measured event loop itself. Its churn-armed rows pick through
		// the rank view of the live servers: the farm adapter in
		// sim/pick.go over workload.Live's rank ↔ id maps.
		"sim/loop.go":      {"runTyped", "flush", "serviceTime", "workAt", "isDown", "noteLen", "noteWork"},
		"workload/live.go": {"ID", "Rank"},
		// The per-departure accumulators the loops flush into: the batched
		// stream entry point and the quantile sketch behind it (Add per
		// observation, addCount/collapse its internals, Merge on the
		// replication/shard pooling path).
		"stats/stream.go": {"AddBatch"},
		"stats/sketch.go": {"Add", "addCount", "collapse", "Merge"},
		// Every picker the alloc test's policies route through, plus the
		// rest of the pick set (one stray fmt call in any of them would
		// put allocations on some policy's event path).
		"sim/pick.go": {"pick", "Len", "Work", "ArgminLen", "ArgminWork"},
		// The completion tracker: the tournament tree.
		"sim/tracker.go": {"min", "update", "min4"},
		// The min-index trees behind jsq-indexed and lwl-work-aware.
		"minindex/minindex.go": {"Update", "Argmin", "combine"},
		"minindex/conc.go":     {"Update", "Argmin"},
		// The live dispatch path carries the same guarantee per event.
		"lb/lb.go":        {"submit", "submitAt", "enter", "dispatcherAt", "admit", "durationNs", "Len", "Work", "argminRank", "ArgminLen", "ArgminWork"},
		"lb/idlestack.go": {"push", "tryPop", "Pick"},
		// The flight recorder rides the same event paths when tracing is
		// on (TestAllocFreeEventPathTraced pins the trace-on floor).
		"trace/trace.go": {"hit", "Start", "Picked", "Enqueued", "Started", "Done", "Abort", "publish", "observe"},
		"sim/trace.go":   {"onArrival", "onDeparture"},
	}

	for rel, funcs := range required {
		path := filepath.Join(internalDir, filepath.FromSlash(rel))
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", rel, err)
		}
		lines := hotpathLines(fset, f)
		hot := make(map[string]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if isHotFunc(fset, lines, fd) {
				hot[fd.Name.Name] = true
			}
		}
		for _, name := range funcs {
			if !hot[name] {
				t.Errorf("%s: %s is on the alloc-free event path but lacks //finitelb:hotpath", rel, name)
			}
		}
	}
}

// TestHotPathCoversEveryPicker closes the gap the name-based table above
// leaves for methods: all the pick methods share the name "pick", so
// this test counts the annotated ones in sim/pick.go and requires every
// pick method in the file to be annotated.
func TestHotPathCoversEveryPicker(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	path := filepath.Join(filepath.Dir(filepath.Dir(self)), "sim", "pick.go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	lines := hotpathLines(fset, f)
	var total, annotated int
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "pick" || fd.Recv == nil {
			continue
		}
		total++
		if isHotFunc(fset, lines, fd) {
			annotated++
		}
	}
	if total == 0 {
		t.Fatal("sim/pick.go: no pick methods found; the file moved?")
	}
	if annotated != total {
		t.Errorf("sim/pick.go: %d of %d pick methods annotated //finitelb:hotpath; all must be", annotated, total)
	}
}
