package experiment

import (
	"encoding/json"
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
