package experiment

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/chaos"
	"cloudrepl/internal/proxy"
)

// chaosSpec is a quick mid-load point for fault-injection tests.
func chaosSpec(seed int64) RunSpec {
	return RunSpec{
		Seed: seed, Users: 60, Slaves: 2, Scale: 300, ReadRatio: 0.5, Loc: SameZone,
		RampUp: time.Minute, Steady: 2 * time.Minute, RampDown: 30 * time.Second,
	}
}

// TestRetryLayerFreeWhenNoFaults: arming the retry policy without any fault
// schedule must not change the run at all — same seed, same throughput.
func TestRetryLayerFreeWhenNoFaults(t *testing.T) {
	plain, err := Run(chaosSpec(71))
	if err != nil {
		t.Fatal(err)
	}
	spec := chaosSpec(71)
	spec.Retry = true
	armed, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Throughput != armed.Throughput {
		t.Fatalf("retry policy perturbed a fault-free run: %v vs %v ops/s",
			plain.Throughput, armed.Throughput)
	}
	if armed.ProxyStats.Retries != 0 || armed.ProxyStats.Failovers != 0 {
		t.Fatalf("robustness counters moved without faults: %+v", armed.ProxyStats)
	}
}

// TestRunDeterministicUnderChaos: the same seed and fault schedule
// reproduce the same run bit-for-bit.
func TestRunDeterministicUnderChaos(t *testing.T) {
	mk := func() RunSpec {
		spec := chaosSpec(72)
		spec.Retry = true
		spec.Chaos = new(chaos.Schedule).CrashFor(90*time.Second, 30*time.Second, "slave1")
		return spec
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Errors != b.Errors || a.ProxyStats != b.ProxyStats {
		t.Fatalf("chaos run not deterministic:\n%v %d %+v\n%v %d %+v",
			a.Throughput, a.Errors, a.ProxyStats, b.Throughput, b.Errors, b.ProxyStats)
	}
}

// TestSlaveCrashRunSurvives: killing and restarting a replica mid-run
// completes the protocol with the injector's counters reconciling and the
// ops series sampled throughout.
func TestSlaveCrashRunSurvives(t *testing.T) {
	spec := chaosSpec(73)
	spec.Retry = true
	spec.Chaos = new(chaos.Schedule).CrashFor(90*time.Second, 30*time.Second, "slave1")
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ChaosCounters; got.Crashes != 1 || got.Restarts != 1 || got.Skipped != 0 {
		t.Fatalf("chaos counters %+v do not reconcile with the schedule", got)
	}
	if len(res.ChaosLog) != 2 {
		t.Fatalf("chaos log: %v", res.ChaosLog)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	if res.OpsSeries == nil || len(res.OpsSeries.Points()) == 0 {
		t.Fatal("ops series not sampled")
	}
	sc := analyzeChaos("slave-crash", res, 90*time.Second)
	if sc.PreRate <= 0 {
		t.Fatalf("pre-fault rate = %v", sc.PreRate)
	}
	if res.FinalMaster != "master" {
		t.Fatalf("slave crash must not change the master, got %q", res.FinalMaster)
	}
}

// TestMasterCrashRunFailsOver: killing the master mid-run ends with a
// promoted slave serving writes and the failover visible in the counters.
func TestMasterCrashRunFailsOver(t *testing.T) {
	spec := chaosSpec(74)
	spec.Retry = true
	spec.Chaos = new(chaos.Schedule).Crash(90*time.Second, "master")
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChaosCounters.Crashes != 1 {
		t.Fatalf("chaos counters: %+v", res.ChaosCounters)
	}
	if !strings.HasPrefix(res.FinalMaster, "slave") {
		t.Fatalf("final master %q, want a promoted slave", res.FinalMaster)
	}
	if res.ProxyStats.Failovers != 1 {
		t.Fatalf("failovers = %d, want exactly 1: %+v", res.ProxyStats.Failovers, res.ProxyStats)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v after failover", res.Throughput)
	}
	// The retry layer should absorb nearly every statement that catches the
	// crash window.
	sc := analyzeChaos("master-crash", res, 90*time.Second)
	if sc.ErrorRate > 0.05 {
		t.Fatalf("error rate %.3f, want < 5%%", sc.ErrorRate)
	}
}

// TestRenderChaosFormatting: the renderer mentions every scenario and the
// robustness counters without needing a full ablation run, and every JSON
// scenario row carries the proxy's robustness counters.
func TestRenderChaosFormatting(t *testing.T) {
	r := ChaosResult{
		CrashAt: 3 * time.Minute, SlaveDownFor: time.Minute,
		Baseline:    ChaosScenario{Name: "none"},
		SlaveCrash:  ChaosScenario{Name: "slave-crash", DipPct: 12.5, RecoverySec: 30},
		MasterCrash: ChaosScenario{Name: "master-crash", RecoverySec: -1},
	}
	r.MasterCrash.Res.FinalMaster = "slave2"
	r.SlaveCrash.Res.ProxyStats = proxy.Stats{Retries: 1, Timeouts: 2, SlaveEvictions: 3, SlaveReadmissions: 4}
	out := RenderChaos(r)
	for _, want := range []string{"A-CHAOS", "slave-crash", "master-crash", "failovers", "slave2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	raw, err := json.Marshal(ChaosJSON(r))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Scenarios []map[string]any }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Scenarios) != 3 {
		t.Fatalf("%d scenario rows, want 3", len(doc.Scenarios))
	}
	for i, row := range doc.Scenarios {
		for k, key := range []string{"retries", "timeouts", "slave_evictions", "slave_readmissions"} {
			want := 0.0
			if row["scenario"] == "slave-crash" {
				want = float64(k + 1)
			}
			if got, ok := row[key]; !ok || got != want {
				t.Errorf("scenario row %d (%v): %s = %v (present %v), want %v", i, row["scenario"], key, got, ok, want)
			}
		}
	}
}
