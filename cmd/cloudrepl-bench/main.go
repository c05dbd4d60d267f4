// Command cloudrepl-bench regenerates every table and figure of the
// paper's evaluation on the simulated cloud:
//
//	cloudrepl-bench -fig 2,5          # 50/50 throughput + delay panels
//	cloudrepl-bench -fig 3,6 -short   # 80/20 panels with the quick protocol
//	cloudrepl-bench -rtt              # half-RTT table (T-RTT)
//	cloudrepl-bench -ablation sync,lb,var
//	cloudrepl-bench -trace out.json      # fully-traced pipeline run (cloudrepl-trace summarizes)
//	cloudrepl-bench -all -csv out/       # everything, with CSVs for plotting
//	cloudrepl-bench -all -json out/      # machine-readable BENCH_*.json files
//	cloudrepl-bench -determinism -short  # every determinism arm twice, byte-compared
//
// What there is to run is internal/experiment's registry: the -fig and
// -ablation names, the per-experiment switches and their help lines, -all
// and -determinism all come from it (-h lists them). Figures 2/5 share one
// sweep (each run yields throughput and delay), as do figures 3/6.
// Full-protocol sweeps use the paper's 10/20/5-minute runs on virtual time;
// -short shrinks them to 2/5/1 minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"cloudrepl/internal/experiment"
	"cloudrepl/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// gcPercent is the bench process's GC target: simulation runs allocate in
// bursts and retain little, so a larger heap-growth target than the
// runtime's 100 trades memory for wall-clock without touching virtual-time
// results.
const gcPercent = 300

// run is main with its arguments and streams passed in. It returns the exit
// status: 2 for a command line it cannot act on (a flag, figure or ablation
// name it does not know, or nothing selected), 1 for a run that failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cloudrepl-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figs := fs.String("fig", "", "comma-separated figures to regenerate ("+experiment.Keys(experiment.KindFigure)+")")
	ablations := fs.String("ablation", "", "comma-separated ablations ("+experiment.Keys(experiment.KindAblation)+")")
	switches := map[string]*bool{}
	for _, e := range experiment.Registry {
		if e.Kind == experiment.KindSwitch {
			switches[e.Key] = fs.Bool(e.Key, false, e.ID+" — "+e.Title+"; also runs as part of -all")
		}
	}
	determinism := fs.Bool("determinism", false, "run the determinism sanitizer: every registered arm twice with one seed, failing on any byte difference in the result JSON (with -short: quick protocol, trimmed grids)")
	determinismInject := fs.Bool("determinism-inject", false, "deliberately salt the determinism check with global math/rand entropy; the check must then fail (self-test of the sanitizer)")
	all := fs.Bool("all", false, "regenerate every figure, table, ablation and bench")
	short := fs.Bool("short", false, "use the 2/5/1-minute quick protocol instead of 10/20/5")
	seed := fs.Int64("seed", 1, "base random seed")
	par := fs.Int("par", 0, "parallel runs (0 = GOMAXPROCS)")
	tracePath := fs.String("trace", "", "run one fully-traced pipeline point and write its Chrome trace-event JSON here (view in chrome://tracing or summarize with cloudrepl-trace)")
	csvDir := fs.String("csv", "", "directory to write per-figure CSV files into")
	jsonDir := fs.String("json", "", "directory to write machine-readable BENCH_*.json files into")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile (every allocation since start, not only live heap) to this file on exit")
	quiet := fs.Bool("q", false, "suppress per-run progress lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	selected, err := experiment.Select(*figs, *ablations, func(key string) bool { return *switches[key] }, *all)
	if err != nil {
		fmt.Fprintln(stderr, "cloudrepl-bench:", err)
		return 2
	}
	if len(selected) == 0 && *tracePath == "" && !*determinism && !*determinismInject {
		fs.Usage()
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "cloudrepl-bench:", err)
		return 1
	}
	banner := func(s string) {
		const rule = "=============================================================================="
		fmt.Fprintf(stdout, "%s\n%s\n%s\n", rule, s, rule)
	}
	debug.SetGCPercent(gcPercent)
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	// finish ends a run that succeeded; one that failed leaves no profiles.
	finish := func() int {
		if err := stopProfiles(); err != nil {
			return fail(err)
		}
		return 0
	}
	opts := experiment.SweepOpts{Short: *short, Parallelism: *par, Seed: *seed}
	if !*quiet {
		opts.Progress = func(s string) { fmt.Fprintln(stderr, s) }
	}

	if *determinism || *determinismInject {
		experiment.InjectNondeterminism = *determinismInject
		for _, e := range experiment.Registry {
			for _, arm := range e.Arms {
				banner("determinism sanitizer: " + e.ID + ", " + arm.Name + ": twice with one seed, byte-compared JSON")
				if err := experiment.CheckDeterminism(e.ID+"/"+arm.Name, arm.Build(opts)); err != nil {
					return fail(err)
				}
			}
		}
		fmt.Fprintln(stdout, "determinism check passed: both runs produced byte-identical JSON")
		return finish()
	}

	start := time.Now() //cloudrepl:allow-simtime the CLI reports real elapsed wall time, not simulated time
	//cloudrepl:allow-simtime the CLI reports real elapsed wall time, not simulated time
	elapsed := func() time.Duration { return time.Since(start) }
	sess := experiment.NewSession(opts, elapsed)
	writeFile := func(path string, data []byte) error {
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err == nil {
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
		return err
	}

	for _, e := range selected {
		banner(e.ID + " — " + e.Title)
		out, err := sess.Run(e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, out.Text)
		if out.CSV != "" && *csvDir != "" {
			if err := writeFile(filepath.Join(*csvDir, e.File+".csv"), []byte(out.CSV)); err != nil {
				return fail(err)
			}
		}
		if *jsonDir != "" {
			if err := experiment.WriteJSON(*jsonDir, e.File, out.JSON); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "wrote %s\n", filepath.Join(*jsonDir, "BENCH_"+e.File+".json"))
		}
	}

	if *tracePath != "" {
		banner("trace: fully-instrumented pipeline run (quick protocol)")
		r, err := experiment.TraceRun(opts)
		if err == nil {
			err = writeFile(*tracePath, r.TraceJSON)
		}
		if err != nil {
			return fail(err)
		}
		spans, err := obs.ParseTrace(r.TraceJSON)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, obs.Summarize(spans, 10))
	}

	fmt.Fprintf(stderr, "total wall time: %v\n", elapsed().Round(time.Second))
	return finish()
}

// startProfiles begins the CPU profile, if asked for, and returns the
// function that ends it and writes the allocation profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close() // the profile never started; its error is the one to report
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // fold the last cycle's allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			_ = f.Close() // the write error is the one to report
			return err
		}
		return f.Close()
	}, nil
}
