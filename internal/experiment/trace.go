package experiment

import (
	"encoding/json"
	"time"

	"cloudrepl/internal/repl"
)

// TraceRun executes one fully-traced experiment point: the full replication
// pipeline (group commit + batched shipping + parallel apply) under a small
// mixed workload, with every statement's causal chain recorded as spans and
// exported in RunResult.TraceJSON. The protocol is always the quick
// 2/5/1-minute one — a trace of the paper's 35-minute protocol would be
// hundreds of megabytes without telling a different story — so the output
// is bounded and byte-deterministic for a given seed regardless of -short.
func TraceRun(opts SweepOpts) (RunResult, error) {
	pc := PipelineVariants()[len(PipelineVariants())-1].PC
	return Run(RunSpec{
		Seed:      opts.Seed,
		Users:     16,
		Slaves:    2,
		Scale:     300,
		ReadRatio: 0.5,
		Loc:       SameZone,
		Mode:      repl.Async,
		RampUp:    2 * time.Minute,
		Steady:    5 * time.Minute,
		RampDown:  time.Minute,
		Pipeline:  pc,
		Trace:     true,
	})
}

// traceArm is the traced pipeline point: the Chrome trace export together
// with the metrics snapshot. Span IDs, virtual timestamps and registry values
// must all be identical run to run, or tracing has leaked nondeterminism into
// the simulation.
func traceArm(o SweepOpts) func() (any, error) {
	return func() (any, error) {
		r, err := TraceRun(o)
		if err != nil {
			return nil, err
		}
		return struct {
			Trace   json.RawMessage    `json:"trace"`
			Metrics map[string]float64 `json:"metrics"`
		}{json.RawMessage(r.TraceJSON), r.Metrics}, nil
	}
}
