package experiment

import (
	"encoding/json"
	"fmt"
	"os"
)

// HistoryRow is one line of bench/history.jsonl, the append-only record of
// where the host-side numbers stood after each PR: the kernel bench, the
// planner bench's shapes and the four benchmark cells' allocations (objects
// and KB) per page, set-up time and host-ledger seam prices. A value the PR
// did not record is left out of its row.
type HistoryRow struct {
	// Label names the PR and the commit the numbers were taken on, as `make
	// bench-history` composes it: "PR 21 @ 6d2c6ff+", the trailing "+" meaning
	// "plus the uncommitted change this row was added with". (Rows up to PR 20
	// carry the commit in a field of its own.)
	Label   string                  `json:"label"`
	Kernel  HistoryKernel           `json:"kernel"`
	Planner map[string]HistoryShape `json:"planner"`
	// CellAllocsPerOp is `allocs_per_op` of `go run ./benchmark`, by workload;
	// CellAllocKBPerOp its `host.alloc_kb_per_op` (present when the run included
	// the traced pass, which is what reports per-layer metrics) and CellSetupS
	// its `setup_s`.
	CellAllocsPerOp  map[string]float64 `json:"cells_allocs_per_op"`
	CellAllocKBPerOp map[string]float64 `json:"cells_alloc_kb_per_op,omitempty"`
	CellSetupS       map[string]float64 `json:"cells_setup_s,omitempty"`
	// CellSeamNs is what the host ledger prices each seam at, in wall
	// nanoseconds, by workload and then by metric (historySeams): a layer's
	// own share of a page, and one statement through the executor. Like
	// CellAllocKBPerOp it needs the traced pass; a seam a cell does not have
	// (the router, on an unsharded cell) reads zero there and is left out.
	CellSeamNs map[string]map[string]float64 `json:"cells_seam_ns,omitempty"`
	// AllShortWallS is the wall-clock of the whole `-all -short` sweep, in
	// seconds, when the row was appended by one (as `make bench-history` does).
	AllShortWallS float64 `json:"all_short_wall_s,omitempty"`
}

// historySeams are the per-layer metrics of the benchmark's host ledger a
// row keeps.
var historySeams = []string{
	"core.self_wall_ns_per_op", "pool.self_wall_ns_per_op", "proxy.self_wall_ns_per_op",
	"server.self_wall_ns_per_op", "shard.self_wall_ns_per_op",
	"sqlengine.run_read_wall_ns", "sqlengine.run_write_wall_ns",
}

// HistoryKernel is the kernel bench's two workloads, per event.
type HistoryKernel struct {
	MicroNsPerEvent     float64 `json:"micro_ns_per_event,omitempty"`
	MicroAllocsPerEvent float64 `json:"micro_allocs_per_event,omitempty"`
	CellNsPerEvent      float64 `json:"cell_ns_per_event,omitempty"`
	CellAllocsPerEvent  float64 `json:"cell_allocs_per_event,omitempty"`
}

// HistoryShape is one planner-bench shape.
type HistoryShape struct {
	OpsPerSec   float64 `json:"ops_per_sec"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// NewHistoryRow assembles a row from this process's kernel and planner bench
// and the results.json a `go run ./benchmark -out DIR` left behind.
func NewHistoryRow(label string, k KernelBenchResult, p PlanBenchResult, cellsPath string) (HistoryRow, error) {
	row := HistoryRow{
		Label: label,
		Kernel: HistoryKernel{
			MicroNsPerEvent: k.Micro.NsPerEvent, MicroAllocsPerEvent: k.Micro.AllocsPerEvent,
			CellNsPerEvent: k.Cell.NsPerEvent, CellAllocsPerEvent: k.Cell.AllocsPerEvent,
		},
		Planner:          make(map[string]HistoryShape),
		CellAllocsPerOp:  make(map[string]float64),
		CellAllocKBPerOp: make(map[string]float64),
		CellSetupS:       make(map[string]float64),
		CellSeamNs:       make(map[string]map[string]float64),
	}
	for _, sh := range planShapes {
		m := sh.get(&p)
		row.Planner[sh.name] = HistoryShape{OpsPerSec: m.OpsPerSec, RowsPerSec: m.RowsPerSec, AllocsPerOp: m.AllocsPerOp}
	}
	raw, err := os.ReadFile(cellsPath)
	if err != nil {
		return row, fmt.Errorf("history: %w", err)
	}
	type metrics map[string]struct {
		Value float64 `json:"value"`
	}
	var cells struct {
		Workloads map[string]struct {
			EndToEnd metrics `json:"end_to_end"`
			PerLayer metrics `json:"per_layer"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &cells); err != nil {
		return row, fmt.Errorf("history: %s: %w", cellsPath, err)
	}
	missing := 0
	for name, w := range cells.Workloads {
		row.CellAllocsPerOp[name] = w.EndToEnd["allocs_per_op"].Value
		if row.CellAllocsPerOp[name] == 0 {
			missing++
		}
		if w.EndToEnd["setup_s"].Value != 0 {
			row.CellSetupS[name] = w.EndToEnd["setup_s"].Value
		}
		if w.PerLayer["host.alloc_kb_per_op"].Value != 0 {
			row.CellAllocKBPerOp[name] = w.PerLayer["host.alloc_kb_per_op"].Value
		}
	}
	for _, seam := range historySeams {
		for name, w := range cells.Workloads {
			if w.PerLayer[seam].Value != 0 {
				if row.CellSeamNs[name] == nil {
					row.CellSeamNs[name] = make(map[string]float64)
				}
				row.CellSeamNs[name][seam] = w.PerLayer[seam].Value
			}
		}
	}
	if len(cells.Workloads) == 0 || missing > 0 {
		return row, fmt.Errorf("history: %s: %d workloads, %d without allocs_per_op", cellsPath, len(cells.Workloads), missing)
	}
	return row, nil
}

// AppendHistory adds row to the file at path as one JSON line.
func AppendHistory(path string, row HistoryRow) error {
	line, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("history: %w", err)
	}
	return f.Close()
}
