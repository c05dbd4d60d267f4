package experiment

import "testing"

// TestAblationElastic runs the full short-protocol ablation and checks the
// acceptance shape: the SLO controller converges to about 3 slaves and
// declares the tier master-bound rather than scaling past it, beats the
// fixed single slave on SLO-violation time, and bills fewer slave
// VM-minutes than the fixed 4-slave fleet.
func TestAblationElastic(t *testing.T) {
	r, err := AblationElastic(SweepOpts{Short: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fleets) != 4 {
		t.Fatalf("want 4 fleets, got %d", len(r.Fleets))
	}
	byName := map[string]ElasticFleetResult{}
	for _, f := range r.Fleets {
		byName[f.Name] = f
	}
	fixed1, fixed4, slo := byName["fixed-1"], byName["fixed-4"], byName["staleness-slo"]

	if slo.FinalSlaves < 2 || slo.FinalSlaves > 4 {
		t.Errorf("staleness-slo: want ≈3 final slaves, got %d", slo.FinalSlaves)
	}
	if !slo.MasterBound {
		t.Errorf("staleness-slo: expected a master-bound verdict, got %q", slo.Verdict)
	}
	if slo.PeakSlaves >= 8 {
		t.Errorf("staleness-slo: fleet scaled to the cap (%d peak) instead of stopping at the master", slo.PeakSlaves)
	}
	if slo.SLOViolation >= fixed1.SLOViolation {
		t.Errorf("staleness-slo violation %v not better than fixed-1 %v", slo.SLOViolation, fixed1.SLOViolation)
	}
	if slo.SlaveVMMinutes >= fixed4.SlaveVMMinutes {
		t.Errorf("staleness-slo VM-minutes %.1f not below fixed-4 %.1f", slo.SlaveVMMinutes, fixed4.SlaveVMMinutes)
	}
	if slo.Throughput <= fixed1.Throughput {
		t.Errorf("staleness-slo throughput %.2f not above fixed-1 %.2f", slo.Throughput, fixed1.Throughput)
	}
	t.Logf("\n%s", RenderElastic(r))
}
