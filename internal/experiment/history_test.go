package experiment

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestHistoryAppendsOneRowPerRun: a row carries every planner shape and every
// cell of the results file it was given, and appending leaves the earlier
// lines of the file as they were.
func TestHistoryAppendsOneRowPerRun(t *testing.T) {
	dir := t.TempDir()
	cells := filepath.Join(dir, "results.json")
	if err := os.WriteFile(cells, []byte(`{"workloads":{
		"geo_light":{"end_to_end":{"allocs_per_op":{"value":22.9},"ops_per_vsec":{"value":6.7},"setup_s":{"value":0.02}},
			"per_layer":{"host.alloc_kb_per_op":{"value":3.9},"proxy.self_wall_ns_per_op":{"value":812.5},
				"shard.self_wall_ns_per_op":{"value":0},"sqlengine.run_read_wall_ns":{"value":9100},"sim.events_per_op":{"value":15.4}}},
		"master_bound":{"end_to_end":{"allocs_per_op":{"value":15.9}}}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var k KernelBenchResult
	k.Cell.AllocsPerEvent = 3.5
	var p PlanBenchResult
	p.Analyze.RowsPerSec = 2e6
	path := filepath.Join(dir, "history.jsonl")
	for _, label := range []string{"PR 1", "PR 2"} {
		row, err := NewHistoryRow(label, k, p, cells)
		if err != nil {
			t.Fatal(err)
		}
		if err := AppendHistory(path, row); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []HistoryRow
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var row HistoryRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("line %d: %v", len(rows)+1, err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 || rows[0].Label != "PR 1" || rows[1].Label != "PR 2" {
		t.Fatalf("rows %+v", rows)
	}
	r := rows[1]
	if len(r.Planner) != len(planShapes) || r.Planner["analyze"].RowsPerSec != 2e6 ||
		len(r.CellAllocsPerOp) != 2 || r.CellAllocsPerOp["geo_light"] != 22.9 || r.Kernel.CellAllocsPerEvent != 3.5 ||
		len(r.CellSetupS) != 1 || r.CellSetupS["geo_light"] != 0.02 || r.CellAllocKBPerOp["geo_light"] != 3.9 {
		t.Fatalf("row %+v", r)
	}
	// Seam prices: the ledger metrics the file has, by cell; a zero (the
	// router's seam on an unsharded cell), a per-layer metric that is not a
	// seam price and a cell without a traced pass leave nothing behind.
	seams := r.CellSeamNs["geo_light"]
	if len(r.CellSeamNs) != 1 || len(seams) != 2 || seams["proxy.self_wall_ns_per_op"] != 812.5 || seams["sqlengine.run_read_wall_ns"] != 9100 {
		t.Fatalf("seam prices %+v", r.CellSeamNs)
	}
	if _, err := NewHistoryRow("x", k, p, filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("a missing results file produced a row")
	}
}
