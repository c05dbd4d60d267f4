// Command cloudrepl-bench regenerates every table and figure of the
// paper's evaluation on the simulated cloud:
//
//	cloudrepl-bench -fig 2,5          # 50/50 throughput + delay panels
//	cloudrepl-bench -fig 3,6 -short   # 80/20 panels with the quick protocol
//	cloudrepl-bench -fig 4            # clock synchronization (and T-NTP)
//	cloudrepl-bench -rtt              # half-RTT table (T-RTT)
//	cloudrepl-bench -ablation sync,lb,var
//	cloudrepl-bench -ablation elastic    # SLO-driven autoscaling (A-ELASTIC)
//	cloudrepl-bench -ablation shard      # cell-sharded scale-out (A-SHARD)
//	cloudrepl-bench -ablation pipeline   # replication data path (A-PIPELINE)
//	cloudrepl-bench -trace out.json      # fully-traced pipeline run (cloudrepl-trace summarizes)
//	cloudrepl-bench -all -csv out/       # everything, with CSVs for plotting
//	cloudrepl-bench -all -json out/      # machine-readable BENCH_*.json files
//
// Figures 2/5 share one sweep (each run yields throughput and delay), as
// do figures 3/6. Full-protocol sweeps use the paper's 10/20/5-minute runs
// on virtual time; -short shrinks them to 2/5/1 minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"cloudrepl/internal/experiment"
	"cloudrepl/internal/obs"
)

func main() {
	figs := flag.String("fig", "", "comma-separated figures to regenerate (2,3,4,5,6)")
	rtt := flag.Bool("rtt", false, "measure the half-RTT table (T-RTT)")
	ablations := flag.String("ablation", "", "comma-separated ablations (sync,lb,var,prio,arch,chaos,elastic,pipeline,shard,consist,plan)")
	determinism := flag.Bool("determinism", false, "run the A-PIPELINE determinism sanitizer: the same seed twice, failing on any byte difference in the result JSON (with -short: corner grid + quick protocol)")
	determinismInject := flag.Bool("determinism-inject", false, "deliberately salt the determinism check with global math/rand entropy; the check must then fail (self-test of the sanitizer)")
	all := flag.Bool("all", false, "regenerate every figure, table and ablation")
	short := flag.Bool("short", false, "use the 2/5/1-minute quick protocol instead of 10/20/5")
	seed := flag.Int64("seed", 1, "base random seed")
	par := flag.Int("par", 0, "parallel runs (0 = GOMAXPROCS)")
	tracePath := flag.String("trace", "", "run one fully-traced pipeline point and write its Chrome trace-event JSON here (view in chrome://tracing or summarize with cloudrepl-trace)")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files into")
	jsonDir := flag.String("json", "", "directory to write machine-readable BENCH_*.json files into")
	benchKernel := flag.Bool("bench-kernel", false, "measure raw sim-kernel speed (events/sec, ns/event, allocs/event) and emit BENCH_kernel.json; also runs as part of -all")
	kernelBaseline := flag.String("kernel-baseline", "", "checked-in kernel baseline JSON to gate against: fail when micro ns/event regresses >20% (update with: cp <jsondir>/BENCH_kernel.json bench/kernel_baseline.json)")
	benchPlan := flag.Bool("bench-plan", false, "measure executor speed by statement shape (point read, index scan, hash join, grouped aggregate; insert, point update, apply insert; analyze) and emit BENCH_planner.json; also runs as part of -all")
	planBaseline := flag.String("plan-baseline", "", "checked-in planner baseline JSON to gate against: fail when any shape's rate regresses >20% (update with: cp <jsondir>/BENCH_planner.json bench/planner_baseline.json)")
	history := flag.String("history", "", "append one row — this run's -bench-kernel and -bench-plan results plus the cells' allocs_per_op from -history-cells — to this JSON-lines file (make bench-history)")
	historyLabel := flag.String("history-label", "", "label of the -history row, e.g. \"PR 15\"")
	historyCommit := flag.String("history-commit", "", "commit the -history row's numbers were taken on")
	historyCells := flag.String("history-cells", "", "results.json of a `go run ./benchmark -out DIR` run, for the -history row")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile (every allocation since start, not only live heap) to this file on exit")
	quiet := flag.Bool("q", false, "suppress per-run progress lines")
	gogc := flag.Int("gogc", 300, "GC target percentage for the bench process (simulation runs allocate in bursts and retain little, so a larger heap-growth target trades memory for wall-clock; 0 leaves the runtime default)")
	flag.Parse()

	if *gogc > 0 {
		debug.SetGCPercent(*gogc)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		if f = strings.TrimSpace(f); f != "" {
			want["fig"+f] = true
		}
	}
	for _, a := range strings.Split(*ablations, ",") {
		if a = strings.TrimSpace(a); a != "" {
			want["ab-"+a] = true
		}
	}
	if *rtt {
		want["rtt"] = true
	}
	if *all {
		for _, k := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "rtt", "ab-sync", "ab-lb", "ab-var", "ab-prio", "ab-arch", "ab-chaos", "ab-elastic", "ab-pipeline", "ab-shard", "ab-consist", "ab-plan", "kernel", "planner"} {
			want[k] = true
		}
	}
	if *benchKernel {
		want["kernel"] = true
	}
	if *benchPlan {
		want["planner"] = true
	}
	if *history != "" && !(want["kernel"] && want["planner"]) {
		fatal(fmt.Errorf("-history needs -bench-kernel and -bench-plan in the same run"))
	}
	opts := experiment.SweepOpts{Short: *short, Parallelism: *par, Seed: *seed}
	if !*quiet {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	if *determinism || *determinismInject {
		experiment.InjectNondeterminism = *determinismInject
		banner("determinism sanitizer: A-PIPELINE twice with one seed, byte-compared JSON")
		if err := experiment.PipelineDeterminism(opts, *short); err != nil {
			fatal(err)
		}
		banner("determinism sanitizer: traced run twice with one seed, byte-compared trace + metrics")
		if err := experiment.TraceDeterminism(opts); err != nil {
			fatal(err)
		}
		banner("determinism sanitizer: sharded runner serial vs parallel, byte-compared merged JSON")
		if err := experiment.KernelDeterminism(opts); err != nil {
			fatal(err)
		}
		banner("determinism sanitizer: sharded tier with a live split twice with one seed, byte-compared JSON")
		if err := experiment.ShardDeterminism(opts); err != nil {
			fatal(err)
		}
		banner("determinism sanitizer: MVCC session-consistency arm twice with one seed, byte-compared JSON")
		if err := experiment.ConsistDeterminism(opts); err != nil {
			fatal(err)
		}
		banner("determinism sanitizer: cost-based planner arm twice with one seed, byte-compared JSON incl. EXPLAIN")
		if err := experiment.PlanDeterminism(opts); err != nil {
			fatal(err)
		}
		fmt.Println("determinism check passed: both runs produced byte-identical JSON")
		return
	}

	if len(want) == 0 && *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	writeCSV := func(name, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	writeJSON := func(name string, v any) {
		if *jsonDir == "" {
			return
		}
		if err := experiment.WriteJSON(*jsonDir, name, v); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(*jsonDir, "BENCH_"+name+".json"))
	}

	start := time.Now() //cloudrepl:allow-simtime the CLI reports real elapsed wall time, not simulated time

	if want["fig2"] || want["fig5"] {
		sw := experiment.Fig2Sweep(opts)
		banner("sweep: 50/50, data size 300 (figures 2 and 5)")
		if err := sw.Run(); err != nil {
			fatal(err)
		}
		if want["fig2"] {
			fmt.Println(sw.RenderThroughput("Fig. 2 — end-to-end throughput, 50/50"))
			fmt.Println(sw.RenderSaturation("T-SAT (50/50)"))
		}
		if want["fig5"] {
			fmt.Println(sw.RenderDelay("Fig. 5 — average relative replication delay, 50/50"))
		}
		writeCSV("fig2_fig5.csv", sw.CSV())
		writeJSON("fig2_fig5", experiment.SweepJSON(sw))
	}

	if want["fig3"] || want["fig6"] {
		sw := experiment.Fig3Sweep(opts)
		banner("sweep: 80/20, data size 600 (figures 3 and 6)")
		if err := sw.Run(); err != nil {
			fatal(err)
		}
		if want["fig3"] {
			fmt.Println(sw.RenderThroughput("Fig. 3 — end-to-end throughput, 80/20"))
			fmt.Println(sw.RenderSaturation("T-SAT (80/20)"))
		}
		if want["fig6"] {
			fmt.Println(sw.RenderDelay("Fig. 6 — average relative replication delay, 80/20"))
		}
		writeCSV("fig3_fig6.csv", sw.CSV())
		writeJSON("fig3_fig6", experiment.SweepJSON(sw))
	}

	if want["fig4"] {
		banner("clock synchronization (figure 4 and T-NTP)")
		once, every := experiment.Fig4(*seed)
		fmt.Println(experiment.RenderFig4(once, every))
		var csv strings.Builder
		csv.WriteString("second,sync_once_ms,sync_every_second_ms\n")
		for i := range once.SamplesM {
			fmt.Fprintf(&csv, "%d,%.3f,%.3f\n", i+1, once.SamplesM[i], every.SamplesM[i])
		}
		writeCSV("fig4.csv", csv.String())
		writeJSON("fig4", experiment.Fig4JSON(once, every))
	}

	if want["rtt"] {
		banner("half-RTT measurements (T-RTT)")
		rows := experiment.TableRTT(*seed)
		fmt.Println(experiment.RenderRTT(rows))
		writeJSON("rtt", experiment.RTTJSON(rows))
	}

	if want["ab-sync"] {
		banner("ablation: synchronization models (A-SYNC)")
		rows, err := experiment.AblationSyncModes(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderSyncModes(rows))
		writeJSON("sync", experiment.SyncModesJSON(rows))
	}

	if want["ab-lb"] {
		banner("ablation: read balancers (A-LB)")
		rows, err := experiment.AblationBalancers(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderBalancers(rows))
		writeJSON("lb", experiment.BalancersJSON(rows))
	}

	if want["ab-prio"] {
		banner("ablation: prioritized SQL applier (A-PRIO)")
		r, err := experiment.AblationApplierPriority(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderApplierPriority(r))
		writeJSON("prio", experiment.PriorityJSON(r))
	}

	if want["ab-arch"] {
		banner("ablation: master-slave vs multi-master (A-ARCH)")
		rows, err := experiment.AblationArchitectures(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderArchitectures(rows))
		writeJSON("arch", experiment.ArchitecturesJSON(rows))
	}

	if want["ab-chaos"] {
		banner("ablation: fault injection and recovery (A-CHAOS)")
		r, err := experiment.AblationChaos(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderChaos(r))
		writeJSON("chaos", experiment.ChaosJSON(r))
	}

	if want["ab-var"] {
		banner("ablation: instance performance variation (A-VAR)")
		v, err := experiment.AblationInstanceVariation(opts, 12)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderVariation(v))
		writeJSON("var", experiment.VariationJSON(v))
	}

	if want["ab-pipeline"] {
		banner("ablation: replication pipeline (A-PIPELINE)")
		r, err := experiment.AblationPipeline(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderPipeline(r))
		writeJSON("pipeline", experiment.PipelineJSON(r))
	}

	if want["ab-shard"] {
		banner("ablation: cell-sharded scale-out (A-SHARD)")
		r, err := experiment.AblationSharding(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderSharding(r))
		writeJSON("shard", experiment.ShardingJSON(r))
	}

	if want["ab-consist"] {
		banner("ablation: read-consistency tiers (A-CONSIST)")
		r, err := experiment.AblationConsistency(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderConsistency(r))
		writeJSON("consist", experiment.ConsistencyJSON(r))
	}

	if want["ab-plan"] {
		banner("ablation: cost-based planner vs naive planning (A-PLAN)")
		r, err := experiment.AblationPlan(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderPlan(r))
		writeJSON("plan", experiment.PlanJSON(r))
	}

	if want["ab-elastic"] {
		banner("ablation: SLO-driven autoscaling (A-ELASTIC)")
		r, err := experiment.AblationElastic(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderElastic(r))
		writeJSON("elastic", experiment.ElasticJSON(r))
	}

	if *tracePath != "" {
		banner("trace: fully-instrumented pipeline run (quick protocol)")
		r, err := experiment.TraceRun(opts)
		if err != nil {
			fatal(err)
		}
		if dir := filepath.Dir(*tracePath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
		if err := os.WriteFile(*tracePath, r.TraceJSON, 0o644); err != nil {
			fatal(err)
		}
		spans, err := obs.ParseTrace(r.TraceJSON)
		if err != nil {
			fatal(err)
		}
		fmt.Println(obs.Summarize(spans, 10))
		fmt.Fprintf(os.Stderr, "wrote %s (%d spans)\n", *tracePath, len(spans))
	}

	var kernelRes experiment.KernelBenchResult
	var planRes experiment.PlanBenchResult
	if want["kernel"] {
		banner("kernel bench: raw scheduler speed (micro workload + one experiment cell)")
		//cloudrepl:allow-simtime the kernel bench records the surrounding sweep's real wall-clock
		r, err := experiment.KernelBench(opts, time.Since(start))
		if err != nil {
			fatal(err)
		}
		kernelRes = r
		fmt.Println(experiment.RenderKernelBench(r))
		writeJSON("kernel", r)
		if *kernelBaseline != "" {
			if err := experiment.CheckKernelBaseline(*kernelBaseline, r); err != nil {
				fatal(err)
			}
			fmt.Printf("kernel baseline gate passed (%s)\n", *kernelBaseline)
		}
	}

	if want["planner"] {
		banner("planner bench: executor speed by statement shape (four reads, three writes, one ANALYZE pass)")
		r, err := experiment.PlanBench()
		if err != nil {
			fatal(err)
		}
		planRes = r
		fmt.Println(experiment.RenderPlanBench(r))
		writeJSON("planner", r)
		if *planBaseline != "" {
			if err := experiment.CheckPlanBaseline(*planBaseline, r); err != nil {
				fatal(err)
			}
			fmt.Printf("planner baseline gate passed (%s)\n", *planBaseline)
		}
	}

	if *history != "" {
		row, err := experiment.NewHistoryRow(*historyLabel, *historyCommit, kernelRes, planRes, *historyCells)
		if err == nil {
			err = experiment.AppendHistory(*history, row)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("appended %q to %s\n", *historyLabel, *history)
	}

	//cloudrepl:allow-simtime the CLI reports real elapsed wall time, not simulated time
	fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
}

// startProfiles begins the CPU profile, if asked for, and returns the
// function that ends it and writes the allocation profile. A run that ends
// in fatal leaves no profiles behind.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
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
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatal(err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // fold the last cycle's allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}, nil
}

func banner(s string) {
	fmt.Println("==============================================================================")
	fmt.Println(s)
	fmt.Println("==============================================================================")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cloudrepl-bench:", err)
	os.Exit(1)
}
