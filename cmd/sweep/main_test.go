package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

func goldenCfg() simCfg {
	return simCfg{
		n: 3, d: 2,
		rhos:     "0.6,0.8",
		policies: "sqd,jsq,jiq,rr,random",
		arrival:  "poisson",
		service:  "exponential",
		jobs:     5_000,
		seed:     7,
		workers:  2,
	}
}

// TestSimSweepGolden pins the sim-mode CSV byte for byte: the fixed-seed
// simulation, the submission-order merge of the engine pool (PR 1's
// deterministic-merge guarantee), and the CSV formatting itself. Refresh
// with: go test ./cmd/sweep -run TestSimSweepGolden -update
func TestSimSweepGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := simSweep(&buf, goldenCfg()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sim_sweep.golden.csv")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("sim-mode CSV drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestSimSweepWorkerInvariance re-runs the same grid at several worker
// counts; the CSV must be bit-identical regardless of scheduling.
func TestSimSweepWorkerInvariance(t *testing.T) {
	var base bytes.Buffer
	cfg := goldenCfg()
	cfg.workers = 1
	if err := simSweep(&base, cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 0} {
		var buf bytes.Buffer
		cfg.workers = w
		if err := simSweep(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base.Bytes(), buf.Bytes()) {
			t.Errorf("workers=%d: CSV differs from serial run", w)
		}
	}
}

// TestSimSweepNondefaultWorkload smoke-tests a bursty heterogeneous grid
// end to end through the flag-level spec strings.
func TestSimSweepNondefaultWorkload(t *testing.T) {
	var buf bytes.Buffer
	cfg := goldenCfg()
	cfg.n, cfg.d = 4, 2
	cfg.arrival, cfg.service, cfg.speeds = "hyperexp:cv2=4", "erlang:2", "1x2,2x2"
	if err := simSweep(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 11 {
		t.Errorf("expected header + 10 rows, got %d lines:\n%s", lines, buf.Bytes())
	}
}

// TestSimSweepCommaSpecsStayCSV: specs containing commas (the documented
// "pareto:ALPHA,h=H" form) must be quoted so every row still parses to the
// header's column count.
func TestSimSweepCommaSpecsStayCSV(t *testing.T) {
	var buf bytes.Buffer
	cfg := goldenCfg()
	cfg.policies = "sqd,jsq"
	cfg.arrival = "hyperexp:cv2=4"
	cfg.service = "pareto:2.5,h=100"
	cfg.jobs = 1_000
	if err := simSweep(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("sim-mode output is not valid CSV: %v\n%s", err, buf.Bytes())
	}
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			t.Fatalf("row %d has %d fields, header has %d:\n%s", i, len(row), len(rows[0]), buf.Bytes())
		}
	}
	if rows[1][2] != "pareto:2.5,h=100" {
		t.Errorf("service column round-tripped as %q", rows[1][2])
	}
}

func TestSimSweepBadSpecs(t *testing.T) {
	for _, mutate := range []func(*simCfg){
		func(c *simCfg) { c.rhos = "0.6,x" },
		func(c *simCfg) { c.policies = "sqd,warp" },
		func(c *simCfg) { c.policies = "sqd,jsq,sqd:9" }, // d > N must fail before any cell runs
		func(c *simCfg) { c.policies = "sqd," },
		func(c *simCfg) { c.policies = "sqd, ,jsq" },
		func(c *simCfg) { c.arrival = "erlang" },
		func(c *simCfg) { c.service = "pareto:alpha=-2" },
		func(c *simCfg) { c.speeds = "1,1" },
		func(c *simCfg) { c.jobs = 0 },
		func(c *simCfg) { c.jobs = -5 },
		func(c *simCfg) { c.rhos = "0.6,1.5" },
	} {
		cfg := goldenCfg()
		cfg.jobs = 10
		mutate(&cfg)
		var buf bytes.Buffer
		if err := simSweep(&buf, cfg); err == nil {
			t.Errorf("simSweep accepted bad config %+v", cfg)
		}
	}
}

// TestPointQueryLines pins the two point-query lines the accuracy and
// tails modes carry: the asymptotic delay (Eq. 16) in the accuracy
// header and the exact mean on the tails quantile line.
func TestPointQueryLines(t *testing.T) {
	var buf bytes.Buffer
	if err := accuracy(&buf, 6, 2, 0.9, 1); err != nil {
		t.Fatal(err)
	}
	if want := "SQ(2), N=6, ρ=0.9; asymptotic 2.6141 (Eq. 16"; !strings.Contains(buf.String(), want) {
		t.Errorf("accuracy header lacks %q:\n%s", want, buf.String())
	}
	buf.Reset()
	if err := tails(&buf, 3, 2, 0.8); err != nil {
		t.Fatal(err)
	}
	if want := "sojourn (exact): mean=2.5100 p50="; !strings.Contains(buf.String(), want) {
		t.Errorf("tails quantile line lacks %q:\n%s", want, buf.String())
	}
}
