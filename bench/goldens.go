package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"finitelb/internal/sim"
)

// The pinned values are compiled in, so a run reads no file of its own.

//go:embed goldens/solve.json
var solveGoldenJSON []byte

//go:embed goldens/sim_seed1.json
var simGoldenJSON []byte

type simGoldens struct {
	SimPaper     []simRow `json:"sim_paper"`
	SimPluggable []simRow `json:"sim_pluggable"`
}

var goldens = loadGoldens()

func loadGoldens() (g struct {
	Solve map[string]solved
	simGoldens
}) {
	// Both files are written by updateGoldens; a parse failure is a
	// corrupted checkout, which the solver and simulator checks then
	// report cell by cell.
	_ = json.Unmarshal(solveGoldenJSON, &g.Solve)
	_ = json.Unmarshal(simGoldenJSON, &g.simGoldens)
	return g
}

// updateGoldens recomputes both golden files at seed 1 and writes them
// under dir. It is the only code path that writes to goldens/.
func updateGoldens(dir string) error {
	pinned := map[string]solved{}
	for _, c := range gridCells() {
		s, err := solveCellBounds(c)
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(), err)
		}
		pinned[c.key()] = s
	}
	quiet := newRun("update-goldens", 1, 0, false, "")
	big, _, err := bigWalk(quiet, 0)
	if err != nil {
		return err
	}
	pinned[bigCell.key()] = big

	var sg simGoldens
	for _, set := range []struct {
		cells []simCell
		rows  *[]simRow
	}{{paperCells, &sg.SimPaper}, {pluggableCells, &sg.SimPluggable}} {
		for _, c := range set.cells {
			pc, err := parseCell(c, 1)
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
			res, err := sim.Run(pc.p, pc.opts)
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
			*set.rows = append(*set.rows, rowOf(c, res))
		}
	}
	for name, v := range map[string]any{"solve.json": pinned, "sim_seed1.json": sg} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
