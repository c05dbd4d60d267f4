// Package bench holds the repo's host-speed scripts; this test pins the
// gate's verdict, bench/summary.awk, on synthetic pairs.sh readings.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os/exec"
	"strings"
	"testing"
)

// parentReadings are one pair's parent side: the kernel bench, three planner
// shapes — one per statement, one allocating exactly one object per op, one
// allocating nothing per op (analyze: a pass over 60 001 rows, 20 ops in each
// of 3 repetitions) — and a benchmark metric the gate does not hold.
var parentReadings = map[string]float64{
	"kernel.micro.ns_per_event":          400,
	"kernel.micro.allocs_per_event":      0.0012,
	"kernel.cell.ns_per_event":           2000,
	"kernel.cell.allocs_per_event":       0.4415,
	"planner.point_read.ops_per_sec":     1.1e6,
	"planner.point_read.allocs_per_op":   4,
	"planner.insert.ops_per_sec":         9e5,
	"planner.insert.allocs_per_op":       1.0079,
	"planner.analyze.ops_per_sec":        114,
	"planner.analyze.allocs_per_op":      0,
	"shard_write_heavy.setup_s":          0.0004,
	"shard_write_heavy.allocs_per_op":    3.425,
	"shard_write_heavy.read_latency_p50": 12.5,
}

const pairs = 12

// readings renders pairs of readings as pairs.sh prints them. Wall-clock
// metrics drift from pair to pair by up to ±20 % on both sides at once, as a
// shared box does, and each side adds ±1 % of its own; allocation counts
// repeat exactly. change maps a metric's parent reading to the change's.
func readings(change map[string]func(float64) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d pairs, 54f7c1b -> working tree\n", pairs)
	for p := 1; p <= pairs; p++ {
		drift := 1 + 0.2*math.Sin(float64(p))
		for name, v := range parentReadings {
			parent, next := v, v
			if strings.HasSuffix(name, "ns_per_event") || strings.HasSuffix(name, "ops_per_sec") {
				parent = v * drift * (1 + 0.01*math.Cos(float64(3*p)))
				next = v * drift * (1 - 0.01*math.Cos(float64(5*p)))
			}
			if f := change[name]; f != nil {
				next = f(next)
			}
			fmt.Fprintf(&b, "%d parent %s %g\n%d change %s %g\n", p, name, parent, p, name, next)
		}
	}
	return b.String()
}

// summarize runs summary.awk over in, with awk's extra arguments, and returns
// its output and whether it exited 0.
func summarize(t *testing.T, in string, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command("awk", append(args, "-f", "summary.awk")...)
	cmd.Stdin = strings.NewReader(in)
	out, err := cmd.Output()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return string(out), err == nil
}

func scale(f float64) func(float64) float64 { return func(v float64) float64 { return v * f } }
func set(to float64) func(float64) float64  { return func(float64) float64 { return to } }

// verdictCase is one change to the parent's readings and the one metric the
// gate's verdict must name, "" for a pass.
type verdictCase struct {
	name   string
	change map[string]func(float64) float64
	fails  string
}

// checkVerdicts runs the gate over each case's readings and checks its verdict.
func checkVerdicts(t *testing.T, cases []verdictCase) {
	t.Helper()
	for _, tc := range cases {
		out, passed := summarize(t, readings(tc.change))
		switch {
		case tc.fails == "" && (!passed || !strings.Contains(out, "gate passed: 9 metrics")):
			t.Errorf("%s: want a pass on 9 gated metrics, got:\n%s", tc.name, out)
		case tc.fails != "" && (passed || !strings.Contains(out, "gate FAILED: "+tc.fails+"\n")):
			t.Errorf("%s: want a failure on %s alone, got:\n%s", tc.name, tc.fails, out)
		}
	}
}

// TestGateVerdict: identical sides pass, and a metric the gate does not hold
// never fails it.
func TestGateVerdict(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{"identical sides", nil, ""},
		{"ungated metrics doubled", map[string]func(float64) float64{
			"kernel.micro.allocs_per_event": scale(2), "shard_write_heavy.setup_s": scale(2),
			"shard_write_heavy.allocs_per_op": scale(2), "shard_write_heavy.read_latency_p50": scale(2)}, ""},
	})
}

// TestKernelGateVerdict: a kernel 22 % slower or 6 % more cell allocations
// per event fails on that metric and that metric only; a 15 % slower kernel
// is within the noise the bound allows.
func TestKernelGateVerdict(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{"micro ns/event +22%", map[string]func(float64) float64{"kernel.micro.ns_per_event": scale(1.22)},
			"kernel.micro.ns_per_event"},
		{"micro ns/event +15%", map[string]func(float64) float64{"kernel.micro.ns_per_event": scale(1.15)}, ""},
		{"cell ns/event +22%", map[string]func(float64) float64{"kernel.cell.ns_per_event": scale(1.22)},
			"kernel.cell.ns_per_event"},
		{"cell allocs/event +6%", map[string]func(float64) float64{"kernel.cell.allocs_per_event": scale(1.06)},
			"kernel.cell.allocs_per_event"},
		{"cell allocs/event +5%", map[string]func(float64) float64{"kernel.cell.allocs_per_event": scale(1.05)},
			"kernel.cell.allocs_per_event"},
	})
}

// TestPlannerGateVerdict: a shape at 22 % fewer ops/s or 6 % more
// allocations per op fails on that metric and that metric only, a shape at
// 15 % fewer ops/s passes, and a zero-allocation shape passes a stray object
// and fails an object per row.
func TestPlannerGateVerdict(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{"a shape at 22% fewer ops/s in every pair", map[string]func(float64) float64{"planner.point_read.ops_per_sec": scale(0.78)},
			"planner.point_read.ops_per_sec"},
		{"a shape at 15% fewer ops/s in every pair", map[string]func(float64) float64{"planner.insert.ops_per_sec": scale(0.85)}, ""},
		{"+6% allocs/op", map[string]func(float64) float64{"planner.insert.allocs_per_op": scale(1.06)},
			"planner.insert.allocs_per_op"},
		{"one object in a zero-allocation shape's 60 ops", map[string]func(float64) float64{"planner.analyze.allocs_per_op": set(1.0 / 60)}, ""},
		{"an object per row in a zero-allocation shape", map[string]func(float64) float64{"planner.analyze.allocs_per_op": set(60001)},
			"planner.analyze.allocs_per_op"},
	})
}

// without drops every reading line of in that starts with one of prefixes.
func without(in string, prefixes ...string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(in, "\n") {
		keep := true
		for _, p := range prefixes {
			keep = keep && !strings.HasPrefix(line, p)
		}
		if keep {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestGateOnlyJudgesWhatBothSidesRead: a shape only the change has, or only
// the parent, gets no verdict and passes, whatever its readings; a rate the
// parent read as 0 is no bound on the change's; a metric whose reading is
// missing from one pair fails.
func TestGateOnlyJudgesWhatBothSidesRead(t *testing.T) {
	var lines []string
	for p := 1; p <= pairs; p++ {
		lines = append(lines, fmt.Sprintf("%d change planner.new_shape.ops_per_sec 10\n%d change planner.new_shape.allocs_per_op 9\n", p, p),
			fmt.Sprintf("%d parent planner.old_shape.ops_per_sec 1e9\n%d parent planner.old_shape.allocs_per_op 0\n", p, p),
			fmt.Sprintf("%d parent planner.untimed.ops_per_sec 0\n%d change planner.untimed.ops_per_sec 1e5\n", p, p))
	}
	out, passed := summarize(t, readings(nil)+strings.Join(lines, ""))
	for _, want := range []string{"gate passed: 10 metrics", "planner.new_shape.ops_per_sec", "new\n", "removed\n"} {
		if !passed || !strings.Contains(out, want) {
			t.Errorf("an added, a removed and an untimed shape: want a pass on 10 gated metrics listing %q, got:\n%s", want, out)
		}
	}
	for _, side := range []string{"change", "parent"} {
		out, passed = summarize(t, without(readings(nil), "5 "+side+" kernel.micro.ns_per_event "))
		if passed || !strings.Contains(out, "gate FAILED: kernel.micro.ns_per_event (readings missing)\n") {
			t.Errorf("a %s reading missing from one pair: want a failure on it, got:\n%s", side, out)
		}
	}
}

// TestBenchHistoryLine: given a label, the summary is one JSON row — the parent,
// the pair count, the verdict and per metric both medians, the median ratio
// and the lower/higher/equal counts, and for a gated metric the best ratio,
// bound and verdict — and a failed gate still exits 1. Readings that stop
// before pairs.sh's closing line give no row.
func TestBenchHistoryLine(t *testing.T) {
	in := readings(map[string]func(float64) float64{"kernel.cell.allocs_per_event": scale(1.06)})
	out, passed := summarize(t, in, "-v", "label=PR 38 @ 54f7c1b+")
	if passed {
		t.Error("a failing gate exited 0 while writing its row")
	}
	var row struct {
		Label, Base, Gate string
		Pairs             int
		Metrics           map[string]struct {
			Parent, Change       float64
			Ratio                *float64
			Lower, Higher, Equal int
			BestRatio            *float64 `json:"best_ratio"`
			Bound, Gate          string
		}
	}
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("want one line, got:\n%s", out)
	}
	if err := json.Unmarshal([]byte(out), &row); err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
	if row.Label != "PR 38 @ 54f7c1b+" || row.Base != "54f7c1b" || row.Pairs != pairs ||
		row.Gate != "FAILED: kernel.cell.allocs_per_event" || len(row.Metrics) != len(parentReadings) {
		t.Errorf("row %+v", row)
	}
	cell := row.Metrics["kernel.cell.allocs_per_event"]
	if cell.Parent != 0.4415 || cell.Ratio == nil || *cell.Ratio != 1.06 || cell.Higher != pairs ||
		cell.BestRatio == nil || *cell.BestRatio != 1.06 || cell.Bound != "<=1.03" || cell.Gate != "FAIL" {
		t.Errorf("cell allocs/event %+v", cell)
	}
	if setup := row.Metrics["shard_write_heavy.setup_s"]; setup.BestRatio != nil || setup.Bound != "" || setup.Gate != "" {
		t.Errorf("a metric the gate does not hold has no verdict: %+v", setup)
	}
	if analyze := row.Metrics["planner.analyze.allocs_per_op"]; analyze.Ratio != nil || analyze.Equal != pairs {
		t.Errorf("a metric the parent reads at zero has no ratio: %+v", analyze)
	}
	// Readings without pairs.sh's closing line are a run cut short: no row.
	out, passed = summarize(t, without(in, fmt.Sprintf("%d pairs, ", pairs)), "-v", "label=PR 38 @ 54f7c1b+")
	if passed || out != "" {
		t.Errorf("incomplete readings: want no row and exit 1, got:\n%s", out)
	}
}
