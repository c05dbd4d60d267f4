package experiment

import (
	"testing"

	"cloudrepl/internal/obs"
)

// TestTraceCoversWholePipeline parses a traced run and checks the tentpole
// invariant: every pipeline stage produced spans, and at least one write's
// causal chain — client call, pool checkout, proxy routing, server commit,
// binlog, slave apply — is linked into a single trace.
func TestTraceCoversWholePipeline(t *testing.T) {
	r, err := TraceRun(SweepOpts{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ParseTrace(r.TraceJSON)
	if err != nil {
		t.Fatal(err)
	}
	byStage := map[string]int{}
	for _, sp := range spans {
		byStage[sp.Stage]++
	}
	for _, st := range obs.Stages {
		if byStage[st] == 0 {
			t.Errorf("no spans for stage %q", st)
		}
	}
	trace, ok := obs.FullTrace(spans)
	if !ok {
		t.Fatal("no single trace covers the whole pipeline")
	}
	inTrace := map[string]int{}
	roots := 0
	for _, sp := range spans {
		if sp.Trace != trace {
			continue
		}
		inTrace[sp.Stage]++
		if sp.Parent == 0 {
			roots++
		}
	}
	for _, st := range obs.Stages {
		if inTrace[st] == 0 {
			t.Errorf("full trace lacks stage %q: %v", st, inTrace)
		}
	}
	if roots != 1 {
		t.Errorf("full trace has %d roots, want exactly the client span", roots)
	}
	if len(obs.CriticalPath(spans, trace)) < 3 {
		t.Error("critical path shorter than client→proxy→server")
	}

	// The registry snapshot rode along: client latency and replication
	// counters must be populated for a loaded run.
	for _, key := range []string{"client.exec.count", "proxy.writes", "pool.borrows", "repl.entries_shipped"} {
		if r.Metrics[key] == 0 {
			t.Errorf("metric %s = 0 after a loaded traced run", key)
		}
	}
}
