package main

import (
	"bytes"
	"strings"
	"testing"

	"cloudrepl/internal/experiment"
)

// TestUnknownSelectorExits2: a -fig or -ablation name the registry does not
// have used to be ignored — `-ablation shrad` ran nothing and exited 0. It
// must exit 2, run nothing, and name the valid keys.
func TestUnknownSelectorExits2(t *testing.T) {
	cases := []struct {
		args  []string
		names string // the valid keys the error must list
	}{
		{[]string{"-ablation", "shrad", "-short", "-q"}, experiment.Keys(experiment.KindAblation)},
		{[]string{"-ablation", "shard,shrad", "-short", "-q"}, experiment.Keys(experiment.KindAblation)},
		{[]string{"-fig", "7"}, experiment.Keys(experiment.KindFigure)},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran something before rejecting the command line:\n%s", tc.args, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "unknown") || !strings.Contains(msg, tc.names) {
			t.Errorf("%v: error does not name the valid keys %q:\n%s", tc.args, tc.names, msg)
		}
	}
}

// TestNothingSelectedIsUsage: no selector at all prints the usage and exits 2.
func TestNothingSelectedIsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-short"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-ablation") {
		t.Errorf("no usage on stderr:\n%s", stderr.String())
	}
}

// TestRunsOneExperimentEndToEnd drives the whole loop — select, run, print,
// write — on the cheapest registry entry.
func TestRunsOneExperimentEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rtt", "-q", "-json", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "T-RTT") {
		t.Errorf("no T-RTT banner:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "BENCH_rtt.json") {
		t.Errorf("BENCH_rtt.json not reported written:\n%s", stderr.String())
	}
}
