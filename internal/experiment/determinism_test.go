package experiment

import (
	"strings"
	"testing"
)

// TestCheckDeterminismPassesOnPureRun: a run function with no hidden state
// byte-compares equal.
func TestCheckDeterminismPassesOnPureRun(t *testing.T) {
	err := CheckDeterminism("pure", func() (any, error) {
		return map[string]any{"x": 1, "y": []int{2, 3}}, nil
	})
	if err != nil {
		t.Fatalf("pure run flagged nondeterministic: %v", err)
	}
}

// TestCheckDeterminismCatchesCounter: state carried across runs (the bug
// class: a package-level counter, cache, or rand stream) must fail with a
// pointer at the drifting line.
func TestCheckDeterminismCatchesCounter(t *testing.T) {
	n := 0
	err := CheckDeterminism("counter", func() (any, error) {
		n++
		return map[string]int{"stable": 7, "drift": n}, nil
	})
	if err == nil {
		t.Fatal("carried-over counter not detected")
	}
	if !strings.Contains(err.Error(), "first divergence") || !strings.Contains(err.Error(), "drift") {
		t.Fatalf("error does not point at the drifting field: %v", err)
	}
}

// TestInjectNondeterminismFailsTheCheck: the -determinism-inject escape
// valve salts the encoding from the global rand stream, so the check must
// fail even on a pure run — this is the sanitizer's own self-test.
func TestInjectNondeterminismFailsTheCheck(t *testing.T) {
	InjectNondeterminism = true
	defer func() { InjectNondeterminism = false }()
	err := CheckDeterminism("inject", func() (any, error) {
		return map[string]int{"x": 1}, nil
	})
	if err == nil {
		t.Fatal("injected global-rand entropy not detected")
	}
}

// TestDeterminismArms is the regression guard for the repo's core contract,
// and what `cloudrepl-bench -determinism -short` runs: every arm the registry
// declares — the A-PIPELINE corner grid and traced point, the sharded tier
// with a live split, the session tier, the cost-based planner, the sharded
// runner serial vs parallel — twice with one seed must emit byte-identical
// JSON. Any global rand, wall-clock read or unordered map range on the hot
// path breaks this test before it breaks a figure.
func TestDeterminismArms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every determinism arm twice; skipped in -short")
	}
	arms := 0
	for _, e := range Registry {
		for _, arm := range e.Arms {
			e, arm := e, arm
			arms++
			t.Run(e.ID+"/"+arm.Name, func(t *testing.T) {
				if err := CheckDeterminism(e.ID+"/"+arm.Name, arm.Build(SweepOpts{Short: true, Seed: 42})); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	if arms == 0 {
		t.Fatal("the registry declares no determinism arm")
	}
}

// TestCheckDeterminismRejectsEmptyEncoding: a result that marshals to
// nothing compares equal whatever happened inside the run. The A-SHARD arm
// once marshalled a struct of unexported fields — "{}" twice, a check that
// could not fail.
func TestCheckDeterminismRejectsEmptyEncoding(t *testing.T) {
	type opaque struct{ arm, split int }
	n := 0
	err := CheckDeterminism("opaque", func() (any, error) {
		n++
		return opaque{arm: n}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "encodes to") {
		t.Fatalf("an empty encoding passed the check: %v", err)
	}
}
