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
	base := PlanBenchResult{PointRead: m, IndexScan: m, HashJoin: m, GroupAgg: m}
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
	if err := CheckPlanBaseline(path, slower); err == nil || !strings.Contains(err.Error(), "hash_join rows") {
		t.Errorf("a 20%% slower hash join passed: %v", err)
	}
	if err := CheckPlanBaseline(path, hungrier); err == nil || !strings.Contains(err.Error(), "group_agg 106.0 allocs/op") {
		t.Errorf("6%% more allocations passed: %v", err)
	}
	if err := CheckPlanBaseline(path, within); err != nil {
		t.Errorf("a run within both tolerances failed: %v", err)
	}
}
