package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json: exactly these keys, per the driver's contract.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestLoad  `json:"workloads"`
	EndToEnd   []manifestBound `json:"end_to_end"`
	PerLayer   []manifestLayer `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func manifestOfRegistry() manifest {
	m := manifest{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestBound{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

const manifestPath = "../BENCHMARK.json"

// BENCHMARK.json and the code name the same workloads and metrics, with the
// same units, directions and bounds: nothing is listed that the code does
// not report, and the code reports nothing that is not listed (run.set
// refuses a name outside the registry). BENCH_WRITE_MANIFEST=1 rewrites the
// file from the registry instead of comparing.
func TestManifestMatchesRegistry(t *testing.T) {
	want := manifestOfRegistry()
	if os.Getenv("BENCH_WRITE_MANIFEST") == "1" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate with BENCH_WRITE_MANIFEST=1 go test -run TestManifestMatchesRegistry\n got: %+v\nwant: %+v", got, want)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB cap", len(raw))
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The driver refuses a manifest outside these limits before a single run.
func TestRegistryWithinContractLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
	// 4 + 22 per workload runs, their set-up and two builds inside 3420 s.
	if perRun := 3420.0 / float64(4+22*len(workloads)); runSeconds+6 > perRun {
		t.Errorf("run_seconds %d leaves under 6 s of set-up inside the %.1f s a run may take", runSeconds, perRun)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	var names []string
	for _, w := range workloads {
		check("workload", w.Name)
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, allWorkloads) {
		t.Errorf("allWorkloads %v out of step with workloads %v", allWorkloads, names)
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s should carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if len(d.On) == 0 {
			t.Errorf("%s: no workload measures it", d.Name)
		}
		for _, w := range d.On {
			if findWorkload(w) == nil {
				t.Errorf("%s: measured on unknown workload %q", d.Name, w)
			}
		}
	}
}

// The compiled-in goldens cover every cell the workloads run.
func TestGoldensCoverTheCells(t *testing.T) {
	for _, c := range append(gridCells(), bigCell) {
		if _, ok := goldens.Solve[c.key()]; !ok {
			t.Errorf("goldens/solve.json lacks %s", c.key())
		}
	}
	unstable := 0
	for _, c := range gridCells() {
		if goldens.Solve[c.key()].Unstable {
			unstable++
		}
	}
	if unstable != 8 {
		t.Errorf("%d unstable grid cells pinned, the issue counts 8", unstable)
	}
	for _, set := range []struct {
		cells []simCell
		rows  []simRow
	}{{paperCells, goldens.SimPaper}, {pluggableCells, goldens.SimPluggable}} {
		if len(set.rows) != len(set.cells) {
			t.Errorf("%d pinned rows for %d cells", len(set.rows), len(set.cells))
			continue
		}
		for i, c := range set.cells {
			if set.rows[i].Name != c.Name || set.rows[i].Jobs != c.Jobs {
				t.Errorf("pinned row %d is %s/%d jobs, cell is %s/%d: run -update-goldens", i, set.rows[i].Name, set.rows[i].Jobs, c.Name, c.Jobs)
			}
		}
	}
}
