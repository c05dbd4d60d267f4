package experiment

import (
	"cmp"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/chaos"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/proxy"
)

// chaosSpec is a quick mid-load point for fault-injection tests.
func chaosSpec(seed int64) RunSpec {
	return RunSpec{
		Seed: seed, Users: 60, Slaves: 2, Scale: 300, ReadRatio: 0.5, Loc: SameZone,
		RampUp: time.Minute, Steady: 2 * time.Minute, RampDown: 30 * time.Second,
	}
}

// TestRetryLayerFreeWhenNoFaults: a fault-free run never meets a retryable
// error, so the always-on retry layer never acts — every robustness counter
// reads zero, and no statement fails.
func TestRetryLayerFreeWhenNoFaults(t *testing.T) {
	res, err := Run(chaosSpec(71))
	if err != nil {
		t.Fatal(err)
	}
	ps := res.ProxyStats
	if ps.Retries != 0 || ps.Timeouts != 0 || ps.SlaveEvictions != 0 || ps.SlaveReadmissions != 0 ||
		ps.Failovers != 0 || ps.Errors != 0 {
		t.Fatalf("robustness counters moved without faults: %+v", ps)
	}
	if res.Errors != 0 {
		t.Fatalf("%d operations failed without faults", res.Errors)
	}
}

// TestRunDeterministicUnderChaos: the same seed and fault schedule
// reproduce the same run bit-for-bit.
func TestRunDeterministicUnderChaos(t *testing.T) {
	mk := func() RunSpec {
		spec := chaosSpec(72)
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

// TestCrashDetectedFromErrors: the proxy learns of a crash only from its
// statements, so a crashed backend is benched — a slave evicted, a master
// replaced by a promoted slave — when the evictAfter-th (3rd) attempt on it
// fails, and the detection window is those failed attempts' span. The
// traced run measures it: each crash is detected within two seconds, by
// three failed attempts on the crashed backend, every one of them retried
// (no operation fails).
func TestCrashDetectedFromErrors(t *testing.T) {
	const crashAt = 90 * time.Second
	for _, tc := range []struct {
		victim string
		sched  *chaos.Schedule
	}{
		{"slave1", new(chaos.Schedule).CrashFor(crashAt, 30*time.Second, "slave1")},
		{"master", new(chaos.Schedule).Crash(crashAt, "master")},
	} {
		spec := chaosSpec(75)
		spec.Chaos, spec.Trace = tc.sched, true
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		spans, err := obs.ParseTrace(res.TraceJSON)
		if err != nil {
			t.Fatal(err)
		}
		var failed []obs.ParsedSpan
		for _, sp := range spans {
			if sp.Stage == "proxy" && sp.Name == "attempt" && sp.Attrs["backend"] == tc.victim &&
				sp.Attrs["error"] != "" && sp.EndUs() >= float64(crashAt.Microseconds()) {
				failed = append(failed, sp)
			}
		}
		slices.SortFunc(failed, func(a, b obs.ParsedSpan) int { return cmp.Compare(a.EndUs(), b.EndUs()) })
		if len(failed) < 3 {
			t.Fatalf("%s crash: %d failed attempts on it, want at least 3 (the bench)", tc.victim, len(failed))
		}
		detect := time.Duration(failed[2].EndUs()-float64(crashAt.Microseconds())) * time.Microsecond
		t.Logf("%s crash: benched %v after the crash by 3 failed attempts (first at +%v); %d failed attempts in the run, %d retries, %d failed operations",
			tc.victim, detect, time.Duration(failed[0].EndUs()-float64(crashAt.Microseconds()))*time.Microsecond,
			len(failed), res.ProxyStats.Retries, res.Errors)
		if detect > 2*time.Second {
			t.Errorf("%s crash detected after %v, want within 2 s", tc.victim, detect)
		}
		if res.Errors != 0 || res.ProxyStats.Retries < 3 {
			t.Errorf("%s crash: %d failed operations, %d retries; want 0 and at least 3", tc.victim, res.Errors, res.ProxyStats.Retries)
		}
	}
}

// TestTracedRunIsTheUntracedRun: the tracer draws nothing from the run's
// random stream, so turning tracing on changes nothing a run reports — here
// A-CHAOS's fault-free and master-crash runs at sweep seed 3, where one draw
// at the tracer's construction once moved the fault-free run from 13.837 to
// 13.630 ops/s and the master-crash run from 5 retries to 3.
func TestTracedRunIsTheUntracedRun(t *testing.T) {
	specs, _, _ := chaosSpecs(SweepOpts{Short: true, Seed: 3})
	for _, spec := range []RunSpec{specs[0], specs[2]} {
		plain, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Trace = true
		traced, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(traced.TraceJSON) == 0 {
			t.Fatal("the traced run exported no trace")
		}
		traced.Spec.Trace, traced.TraceJSON = false, nil
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("seed %d, chaos %v: untraced %.3f ops/s, %d retries; traced %.3f ops/s, %d retries, or another field differs",
				spec.Seed, spec.Chaos != nil, plain.Throughput, plain.ProxyStats.Retries, traced.Throughput, traced.ProxyStats.Retries)
		}
	}
}
