package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAblationPlanCostBeatsNaive verifies the A-PLAN acceptance criterion:
// on the join-heavy grid the cost-based planner beats the forced-naive
// planner in end-to-end ops/s, and the decision log shows why — the cost
// arm drives the creator index while the naive arm scans attendance.
func TestAblationPlanCostBeatsNaive(t *testing.T) {
	r, err := AblationPlan(SweepOpts{Short: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 2 || r.Arms[0].Planner != "cost-based" || r.Arms[1].Planner != "naive" {
		t.Fatalf("arms: %+v", r.Arms)
	}
	cost, naive := r.Arms[0], r.Arms[1]
	if cost.Errors != 0 || naive.Errors != 0 {
		t.Fatalf("errors: cost=%d naive=%d", cost.Errors, naive.Errors)
	}
	if cost.Throughput <= naive.Throughput*1.05 {
		t.Fatalf("cost-based throughput %.2f not above naive %.2f by >5%%",
			cost.Throughput, naive.Throughput)
	}
	if cost.FeedCost*100 >= naive.FeedCost {
		t.Fatalf("feed cost estimate %.0f rows not ≪ naive %.0f", cost.FeedCost, naive.FeedCost)
	}
	if !strings.Contains(cost.FeedPlan, "index_scan e via idx_creator") {
		t.Fatalf("cost plan does not drive the creator index:\n%s", cost.FeedPlan)
	}
	if !strings.Contains(naive.FeedPlan, "scan a") {
		t.Fatalf("naive plan does not scan attendance:\n%s", naive.FeedPlan)
	}
	out := RenderPlan(r)
	for _, want := range []string{"A-PLAN", "cost-based", "naive", "inl_join"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, err := json.Marshal(PlanJSON(r)); err != nil {
		t.Fatalf("PlanJSON not marshalable: %v", err)
	}
}

// TestCheckPlanBaselineGatesRateAndAllocs pins both halves of the planner
// bench gate: a shape more than 20% slower than the baseline fails, and so
// does one that allocates more than 5% above it, whatever its speed.
func TestCheckPlanBaselineGatesRateAndAllocs(t *testing.T) {
	m := PlanBenchMeasure{OpsPerSec: 1000, RowsPerSec: 1000, AllocsPerOp: 100}
	var base PlanBenchResult
	for _, sh := range planShapes {
		*sh.get(&base) = m
	}
	base.Analyze = PlanBenchMeasure{OpsPerSec: 40, RowsPerSec: 2e6}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planner_baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckPlanBaseline(path, base); err != nil {
		t.Fatalf("identical run failed the gate: %v", err)
	}
	slower, hungrier, within := base, base, base
	slower.HashJoin.RowsPerSec = 800
	hungrier.GroupAgg.AllocsPerOp = 106
	within.GroupAgg.AllocsPerOp, within.PointRead.OpsPerSec = 104, 900
	slowApply, hungryInsert := base, base
	slowApply.ApplyInsert.OpsPerSec = 800
	hungryInsert.Insert.AllocsPerOp = 106
	if err := CheckPlanBaseline(path, slowApply); err == nil || !strings.Contains(err.Error(), "apply_insert ops") {
		t.Errorf("a 20%% slower apply passed: %v", err)
	}
	if err := CheckPlanBaseline(path, hungryInsert); err == nil || !strings.Contains(err.Error(), "insert 106.0 allocs/op") {
		t.Errorf("6%% more allocations per insert passed: %v", err)
	}
	if err := CheckPlanBaseline(path, slower); err == nil || !strings.Contains(err.Error(), "hash_join rows") {
		t.Errorf("a 20%% slower hash join passed: %v", err)
	}
	if err := CheckPlanBaseline(path, hungrier); err == nil || !strings.Contains(err.Error(), "group_agg 106.0 allocs/op") {
		t.Errorf("6%% more allocations passed: %v", err)
	}
	// The analyze shape's baseline is zero objects per pass: a stray object
	// or two is inside its allowance, a per-row allocation is not.
	within.Analyze.AllocsPerOp = 1.5
	if err := CheckPlanBaseline(path, within); err != nil {
		t.Errorf("a run within both tolerances failed: %v", err)
	}
	perRow := base
	perRow.Analyze.AllocsPerOp = 60000
	if err := CheckPlanBaseline(path, perRow); err == nil || !strings.Contains(err.Error(), "analyze 60000.0 allocs/op") {
		t.Errorf("an ANALYZE allocating per row passed: %v", err)
	}
}

// TestCheckKernelBaselineGatesCellAllocs pins the kernel bench gate's two
// halves: the micro workload's ns/event at +20% and the full cell's
// allocs/event — which repeats exactly — at +5%, whatever the cell's speed.
func TestCheckKernelBaselineGatesCellAllocs(t *testing.T) {
	base := KernelBenchResult{
		Micro: KernelMeasure{NsPerEvent: 500},
		Cell:  KernelMeasure{NsPerEvent: 5000, AllocsPerEvent: 10},
	}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kernel_baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	slower, hungrier, within := base, base, base
	slower.Micro.NsPerEvent = 601
	hungrier.Cell.AllocsPerEvent = 10.6
	within.Micro.NsPerEvent, within.Cell.AllocsPerEvent, within.Cell.NsPerEvent = 590, 10.4, 9000
	if err := CheckKernelBaseline(path, slower); err == nil || !strings.Contains(err.Error(), "micro ns/event") {
		t.Errorf("a 20%% slower kernel passed: %v", err)
	}
	if err := CheckKernelBaseline(path, hungrier); err == nil || !strings.Contains(err.Error(), "cell allocs/event 10.60") {
		t.Errorf("6%% more allocations per cell event passed: %v", err)
	}
	if err := CheckKernelBaseline(path, within); err != nil {
		t.Errorf("a run within both tolerances failed: %v", err)
	}
}
