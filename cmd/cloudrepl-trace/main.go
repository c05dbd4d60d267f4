// Command cloudrepl-trace summarizes a Chrome trace-event file written by
// cloudrepl-bench -trace:
//
//	cloudrepl-trace out.json            # per-stage breakdown, top spans, critical path
//	cloudrepl-trace -top 20 out.json    # widen the top-spans table
//	cloudrepl-trace -check out.json     # CI gate: ≥1 span per pipeline stage and
//	                                    # one complete client→apply trace, or exit 1
//
// The file itself stays loadable in chrome://tracing or Perfetto; this
// command is the terminal-friendly view of the same data.
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudrepl/internal/obs"
)

func main() {
	check := flag.Bool("check", false, "validate instead of summarize: every pipeline stage has ≥1 span and some trace covers the whole pipeline")
	top := flag.Int("top", 10, "number of longest spans to list")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cloudrepl-trace [-check] [-top N] trace.json")
		os.Exit(2)
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	spans, err := obs.ParseTrace(data)
	if err != nil {
		fatal(err)
	}

	if *check {
		if err := validate(spans); err != nil {
			fatal(err)
		}
		fmt.Printf("trace ok: %d spans, every stage populated, full pipeline trace present\n", len(spans))
		return
	}
	fmt.Print(obs.Summarize(spans, *top))
}

// validate is `make smoke`'s trace gate: the instrumentation must have produced
// at least one span for every pipeline stage, and at least one write's
// causal chain must span the whole pipeline.
func validate(spans []obs.ParsedSpan) error {
	counts := map[string]int{}
	for _, sp := range spans {
		counts[sp.Stage]++
	}
	for _, st := range obs.Stages {
		if counts[st] == 0 {
			return fmt.Errorf("no spans for stage %q (stages seen: %v)", st, counts)
		}
	}
	if _, ok := obs.FullTrace(spans); !ok {
		return fmt.Errorf("no single trace covers every pipeline stage")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cloudrepl-trace:", err)
	os.Exit(1)
}
