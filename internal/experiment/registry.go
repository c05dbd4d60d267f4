package experiment

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// This file is the one table of what the evaluation consists of. Everything
// cloudrepl-bench does per experiment — selector parsing, -all, the help
// text, the unknown-name error, banner / print / write, the -determinism
// sequence — and `make smoke`, the registry tests and DESIGN.md §4's index
// check range over Registry; adding an experiment is adding one entry here.

// Kind is how an experiment is addressed on the command line.
type Kind int

// The three selector forms.
const (
	KindFigure   Kind = iota // -fig <Key>
	KindAblation             // -ablation <Key>
	KindSwitch               // its own boolean flag, -<Key>
)

// Experiment is one figure, table, ablation or bench of the evaluation.
type Experiment struct {
	Kind Kind
	// Key is the selector name, unique across the registry.
	Key string
	// ID is the experiment id DESIGN.md §4 indexes it under.
	ID    string
	Title string
	// File names what a run leaves behind: BENCH_<File>.json under -json and
	// <File>.csv under -csv (when the run produces a CSV). The two panels of
	// one sweep share a File — and the sweep, see Session.sweep.
	File string
	Run  func(s *Session, e *Experiment) (Output, error)
	// Arms are what `-determinism` runs twice from one seed and byte-compares
	// (see CheckDeterminism); most experiments have at most one.
	Arms []Arm
	// Gate fails when out — this experiment's Output.JSON — regresses against
	// the checked-in baseline file, which `-gate DIR` looks for at
	// DIR/<File>_baseline.json. Benches only.
	Gate func(baselinePath string, out any) error
}

// Output is what one run hands the CLI.
type Output struct {
	Text string // formatted panels for the terminal
	JSON any    // payload of BENCH_<File>.json
	CSV  string // content of <File>.csv; empty when the experiment has none
}

// Arm is one configuration of an experiment that must be byte-deterministic.
// Build returns the run function CheckDeterminism calls twice; state the two
// calls share (the kernel arm alternates serial and parallel) lives in the
// closure, so every Build starts fresh. Under o.Short an arm shrinks to its
// quick form.
type Arm struct {
	Name  string // short, unique within the experiment: banners and subtest names
	Build func(o SweepOpts) func() (any, error)
}

// Session is one cloudrepl-bench invocation's state across experiments.
type Session struct {
	opts SweepOpts
	// elapsed reports the invocation's wall-clock so far.
	elapsed func() time.Duration
	// figuresWall is the wall-clock spent in the figures and ablations run so
	// far: the kernel bench records how long the sweep it rode along with
	// took, zero when it ran alone.
	figuresWall time.Duration
	sweeps      map[string]*Sweep // by File
	results     map[string]any    // Output.JSON by Key
}

// NewSession starts an invocation.
func NewSession(o SweepOpts, elapsed func() time.Duration) *Session {
	return &Session{opts: o, elapsed: elapsed, sweeps: map[string]*Sweep{}, results: map[string]any{}}
}

// Run executes e and remembers its JSON payload for HistoryRow.
func (s *Session) Run(e *Experiment) (Output, error) {
	before := s.elapsed()
	out, err := e.Run(s, e)
	if err != nil {
		return Output{}, fmt.Errorf("%s: %w", e.ID, err)
	}
	if e.Kind != KindSwitch {
		s.figuresWall += s.elapsed() - before
	}
	s.results[e.Key] = out.JSON
	return out, nil
}

// HistoryRow assembles this invocation's bench/history.jsonl row; both
// benches must have run in it. allShortWall is the invocation's wall-clock
// when it was the whole `-all -short` sweep, zero otherwise.
func (s *Session) HistoryRow(label, cellsPath string, allShortWall time.Duration) (HistoryRow, error) {
	k, okK := s.results["bench-kernel"].(KernelBenchResult)
	p, okP := s.results["bench-plan"].(PlanBenchResult)
	if !okK || !okP {
		return HistoryRow{}, errors.New("history: needs -bench-kernel and -bench-plan in the same run")
	}
	row, err := NewHistoryRow(label, k, p, cellsPath)
	row.AllShortWallS = allShortWall.Seconds()
	return row, err
}

// sweep runs a figure sweep once per session: Figs. 2 and 5 are two panels
// of one sweep (each run yields throughput and delay), as are Figs. 3 and 6.
func (s *Session) sweep(file string, build func(SweepOpts) *Sweep) (*Sweep, error) {
	if sw := s.sweeps[file]; sw != nil {
		return sw, nil
	}
	sw := build(s.opts)
	if err := sw.Run(); err != nil {
		return nil, err
	}
	s.sweeps[file] = sw
	return sw, nil
}

// panel is the Run of one figure of a shared sweep, shared by File.
func panel(build func(SweepOpts) *Sweep, render func(*Sweep) string) func(*Session, *Experiment) (Output, error) {
	return func(s *Session, e *Experiment) (Output, error) {
		sw, err := s.sweep(e.File, build)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: render(sw), JSON: SweepJSON(sw), CSV: sw.CSV()}, nil
	}
}

// run is the Run of an experiment that is measure → render → flatten.
func run[R any](measure func(SweepOpts) (R, error), render func(R) string, flatten func(R) any) func(*Session, *Experiment) (Output, error) {
	return func(s *Session, _ *Experiment) (Output, error) {
		r, err := measure(s.opts)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: render(r), JSON: flatten(r)}, nil
	}
}

// Registry lists every experiment in the order `-all` runs them.
var Registry = []*Experiment{
	{Kind: KindFigure, Key: "2", ID: "FIG2", Title: "end-to-end throughput, 50/50, with the saturation table (T-SAT)", File: "fig2_fig5",
		Run: panel(Fig2Sweep, func(sw *Sweep) string {
			return sw.RenderThroughput("Fig. 2 — end-to-end throughput, 50/50") + "\n" + sw.RenderSaturation("T-SAT (50/50)")
		})},
	{Kind: KindFigure, Key: "5", ID: "FIG5", Title: "average relative replication delay, 50/50", File: "fig2_fig5",
		Run: panel(Fig2Sweep, func(sw *Sweep) string {
			return sw.RenderDelay("Fig. 5 — average relative replication delay, 50/50")
		})},
	{Kind: KindFigure, Key: "3", ID: "FIG3", Title: "end-to-end throughput, 80/20, with the saturation table (T-SAT)", File: "fig3_fig6",
		Run: panel(Fig3Sweep, func(sw *Sweep) string {
			return sw.RenderThroughput("Fig. 3 — end-to-end throughput, 80/20") + "\n" + sw.RenderSaturation("T-SAT (80/20)")
		})},
	{Kind: KindFigure, Key: "6", ID: "FIG6", Title: "average relative replication delay, 80/20", File: "fig3_fig6",
		Run: panel(Fig3Sweep, func(sw *Sweep) string {
			return sw.RenderDelay("Fig. 6 — average relative replication delay, 80/20")
		})},
	{Kind: KindFigure, Key: "4", ID: "FIG4", Title: "clock synchronization, with the NTP statistics (T-NTP)", File: "fig4",
		Run: func(s *Session, _ *Experiment) (Output, error) {
			once, every := Fig4(s.opts.Seed)
			var csv strings.Builder
			csv.WriteString("second,sync_once_ms,sync_every_second_ms\n")
			for i := range once.SamplesM {
				fmt.Fprintf(&csv, "%d,%.3f,%.3f\n", i+1, once.SamplesM[i], every.SamplesM[i])
			}
			return Output{Text: RenderFig4(once, every), JSON: Fig4JSON(once, every), CSV: csv.String()}, nil
		}},
	{Kind: KindSwitch, Key: "rtt", ID: "T-RTT", Title: "half-RTT between the master and each slave location", File: "rtt",
		Run: run(func(o SweepOpts) ([]RTTResult, error) { return TableRTT(o.Seed), nil }, RenderRTT, RTTJSON)},
	{Kind: KindAblation, Key: "sync", ID: "A-SYNC", Title: "synchronization models", File: "sync",
		Run: run(AblationSyncModes, RenderSyncModes, SyncModesJSON)},
	{Kind: KindAblation, Key: "lb", ID: "A-LB", Title: "read balancers", File: "lb",
		Run: run(AblationBalancers, RenderBalancers, BalancersJSON)},
	{Kind: KindAblation, Key: "prio", ID: "A-PRIO", Title: "prioritized SQL applier", File: "prio",
		Run: run(AblationApplierPriority, RenderApplierPriority, PriorityJSON)},
	{Kind: KindAblation, Key: "arch", ID: "A-ARCH", Title: "master-slave vs multi-master", File: "arch",
		Run: run(AblationArchitectures, RenderArchitectures, ArchitecturesJSON)},
	{Kind: KindAblation, Key: "chaos", ID: "A-CHAOS", Title: "fault injection and recovery", File: "chaos",
		Run: run(AblationChaos, RenderChaos, ChaosJSON)},
	{Kind: KindAblation, Key: "var", ID: "A-VAR", Title: "instance performance variation", File: "var",
		Run: run(func(o SweepOpts) (VariationResult, error) { return AblationInstanceVariation(o, 12) },
			RenderVariation, VariationJSON)},
	{Kind: KindAblation, Key: "pipeline", ID: "A-PIPELINE", Title: "replication data path: group commit, batched shipping, parallel apply", File: "pipeline",
		Run:  run(AblationPipeline, RenderPipeline, PipelineJSON),
		Arms: []Arm{{"grid", pipelineArm}, {"traced-point", traceArm}}},
	{Kind: KindAblation, Key: "shard", ID: "A-SHARD", Title: "cell-sharded scale-out and one live split", File: "shard",
		Run:  run(AblationSharding, RenderSharding, ShardingJSON),
		Arms: []Arm{{"split", shardArm}}},
	{Kind: KindAblation, Key: "consist", ID: "A-CONSIST", Title: "read-consistency tiers", File: "consist",
		Run:  run(AblationConsistency, RenderConsistency, ConsistencyJSON),
		Arms: []Arm{{"session", consistArm}}},
	{Kind: KindAblation, Key: "plan", ID: "A-PLAN", Title: "cost-based planner vs naive planning", File: "plan",
		Run:  run(AblationPlan, RenderPlan, PlanJSON),
		Arms: []Arm{{"cost-based", planArm}}},
	{Kind: KindAblation, Key: "elastic", ID: "A-ELASTIC", Title: "SLO-driven autoscaling", File: "elastic",
		Run:  run(AblationElastic, RenderElastic, ElasticJSON),
		Arms: []Arm{{"staleness-slo", elasticSLOArm}}},
	{Kind: KindSwitch, Key: "bench-kernel", ID: "B-KERNEL", Title: "raw sim-kernel speed: events/sec, ns/event, allocs/event on a micro workload and one experiment cell", File: "kernel",
		Run: func(s *Session, _ *Experiment) (Output, error) {
			r, err := KernelBench(s.opts, s.figuresWall)
			if err != nil {
				return Output{}, err
			}
			return Output{Text: RenderKernelBench(r), JSON: r}, nil
		},
		Arms: []Arm{{"serial-vs-parallel", runShardsArm}},
		Gate: func(path string, out any) error {
			return CheckKernelBaseline(path, out.(KernelBenchResult))
		}},
	{Kind: KindSwitch, Key: "bench-plan", ID: "B-PLAN", Title: "executor speed by statement shape: reads, writes, apply of a logged write, one ANALYZE pass", File: "planner",
		Run: run(func(SweepOpts) (PlanBenchResult, error) { return PlanBench() }, RenderPlanBench,
			func(r PlanBenchResult) any { return r }),
		Gate: func(path string, out any) error {
			return CheckPlanBaseline(path, out.(PlanBenchResult))
		}},
}

// Keys lists the selector names of one kind, comma-separated, in registry
// order — for help texts and the unknown-name error.
func Keys(kind Kind) string {
	var keys []string
	for _, e := range Registry {
		if e.Kind == kind {
			keys = append(keys, e.Key)
		}
	}
	return strings.Join(keys, ",")
}

// Select resolves a command line to experiments, in registry order: the
// comma-separated -fig and -ablation lists, the switches on reports as set,
// or everything under all. A name the registry does not have is an error
// that lists the valid ones.
func Select(figs, ablations string, on func(switchKey string) bool, all bool) ([]*Experiment, error) {
	want := map[*Experiment]bool{}
	for kind, list := range [...]string{KindFigure: figs, KindAblation: ablations} {
	next:
		for _, name := range strings.Split(list, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			for _, e := range Registry {
				if e.Kind == Kind(kind) && e.Key == name {
					want[e] = true
					continue next
				}
			}
			return nil, fmt.Errorf("unknown %s %q (valid: %s)",
				[...]string{KindFigure: "figure", KindAblation: "ablation"}[kind], name, Keys(Kind(kind)))
		}
	}
	var out []*Experiment
	for _, e := range Registry {
		if all || want[e] || (e.Kind == KindSwitch && on(e.Key)) {
			out = append(out, e)
		}
	}
	return out, nil
}
