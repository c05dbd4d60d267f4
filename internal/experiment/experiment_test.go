package experiment

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/repl"
)

// shortSpec returns a quick-protocol spec.
func shortSpec(users, slaves int, loc Location, ratio float64, scale int) RunSpec {
	return RunSpec{
		Seed: int64(users*1000 + slaves*10 + int(loc)), Users: users, Slaves: slaves,
		Scale: scale, ReadRatio: ratio, Loc: loc,
		RampUp: 90 * time.Second, Steady: 4 * time.Minute, RampDown: 30 * time.Second,
	}
}

func TestRunProducesThroughputAndDelay(t *testing.T) {
	res, err := Run(shortSpec(50, 2, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput < 4 || res.Throughput > 10 {
		t.Fatalf("throughput = %v, want ≈7 ops/s for 50 users", res.Throughput)
	}
	if res.AvgDelayMs <= 0 {
		t.Fatalf("delay = %v", res.AvgDelayMs)
	}
	if len(res.PerSlaveDelayMs) != 2 || len(res.SlaveUtil) != 2 {
		t.Fatalf("per-slave metrics: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %d", res.Errors)
	}
	// The engine counters' values, not only their names (the metric-name
	// goldens): three engines' worth of the preload's 47 GC sweeps and 7 plans
	// are in them, whether a replica ran the preload (as it did when these were
	// taken, at PR 21) or started from the master's image, which carries them.
	// plan.builds was 272 while any table's ANALYZE retired every plan of its
	// engine, and 107 while it retired every plan over that table; now a plan
	// is re-costed in place unless the new statistics change one of its
	// decisions. The 23 statistics passes are the same passes.
	for name, want := range map[string]float64{
		"sqlengine.gc.runs": 207, "sqlengine.gc.versions_pruned": 177,
		"sqlengine.plan.builds": 60, "sqlengine.plan.analyze_runs": 23,
	} {
		if got := res.Metrics[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestUnloadedBaselineRun(t *testing.T) {
	res, err := Run(shortSpec(0, 1, DiffRegion, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != 0 {
		t.Fatalf("baseline throughput = %v", res.Throughput)
	}
	// Cross-region baseline delay ≈ one-way 173ms + apply; well under 1s.
	if res.AvgDelayMs < 150 || res.AvgDelayMs > 1000 {
		t.Fatalf("cross-region baseline delay = %v ms", res.AvgDelayMs)
	}
}

// TestSlaveSaturationMovesToMaster reproduces the §IV-A saturation
// narrative at 50/50: with 1 slave the slave pins at 100% CPU while the
// master stays moderate; with 4 slaves at high workload the master pins
// and the slaves are over-provisioned.
func TestSlaveSaturationMovesToMaster(t *testing.T) {
	oneSlave, err := Run(shortSpec(100, 1, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	if oneSlave.SlaveUtil[0] < 0.9 {
		t.Fatalf("1 slave at 100 users: slave util %.2f, want saturated", oneSlave.SlaveUtil[0])
	}
	if oneSlave.MasterUtil > 0.85 {
		t.Fatalf("1 slave at 100 users: master util %.2f, should not be the bottleneck yet", oneSlave.MasterUtil)
	}

	fourSlaves, err := Run(shortSpec(200, 4, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	if fourSlaves.MasterUtil < 0.9 {
		t.Fatalf("4 slaves at 200 users: master util %.2f, want saturated", fourSlaves.MasterUtil)
	}
	for _, u := range fourSlaves.SlaveUtil {
		if u > 0.7 {
			t.Fatalf("4 slaves at 200 users: slave util %.2f, want over-provisioned", u)
		}
	}
}

// TestThroughputCapIsMasterBound: adding the 4th slave at 50/50 buys no
// throughput once the master saturates (the paper's central scalability
// limit).
func TestThroughputCapIsMasterBound(t *testing.T) {
	three, err := Run(shortSpec(200, 3, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(shortSpec(200, 4, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	if diff := four.Throughput - three.Throughput; diff > 2.0 {
		t.Fatalf("4th slave bought %.2f ops/s; master-bound cap expected", diff)
	}
}

// TestDelayGrowsWithWorkloadAndShrinksWithSlaves reproduces the two delay
// trends of §IV-B.2.
func TestDelayGrowsWithWorkloadAndShrinksWithSlaves(t *testing.T) {
	low, err := Run(shortSpec(50, 2, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(shortSpec(150, 2, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	if high.AvgDelayMs < 5*low.AvgDelayMs {
		t.Fatalf("delay at 150 users (%.1f ms) not ≫ delay at 50 users (%.1f ms)",
			high.AvgDelayMs, low.AvgDelayMs)
	}
	moreSlaves, err := Run(shortSpec(150, 4, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	if moreSlaves.AvgDelayMs >= high.AvgDelayMs {
		t.Fatalf("delay with 4 slaves (%.1f ms) not below 2 slaves (%.1f ms) at same load",
			moreSlaves.AvgDelayMs, high.AvgDelayMs)
	}
}

// TestGeographyMattersLessThanWorkload reproduces the §IV-B.2 conclusion:
// cross-region adds ≈157ms to the unloaded baseline, but workload moves
// delay by orders of magnitude.
func TestGeographyMattersLessThanWorkload(t *testing.T) {
	baseSame, err := Run(shortSpec(0, 2, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	baseRegion, err := Run(shortSpec(0, 2, DiffRegion, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	geoGap := baseRegion.AvgDelayMs - baseSame.AvgDelayMs
	if geoGap < 100 || geoGap > 300 {
		t.Fatalf("geographic baseline gap = %.1f ms, want ≈157", geoGap)
	}
	loaded, err := Run(shortSpec(175, 2, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	workloadEffect := loaded.AvgDelayMs - baseSame.AvgDelayMs
	if workloadEffect < 5*geoGap {
		t.Fatalf("workload effect (%.1f ms) should dwarf geography (%.1f ms)",
			workloadEffect, geoGap)
	}
}

// TestGeoThroughputOrdering: same zone ≥ different zone ≥ different region
// throughput at a fixed sub-saturation workload, since all users sit next
// to the master.
func TestGeoThroughputOrdering(t *testing.T) {
	var tps [3]float64
	for i, loc := range []Location{SameZone, DiffZone, DiffRegion} {
		res, err := Run(shortSpec(125, 2, loc, 0.8, 600))
		if err != nil {
			t.Fatal(err)
		}
		tps[i] = res.Throughput
	}
	if tps[0] < tps[2] {
		t.Fatalf("same-zone throughput %.2f below different-region %.2f", tps[0], tps[2])
	}
	// The read-heavy 80/20 ratio makes the cross-region degradation
	// noticeable (paper: degradation grows with read percentage).
	if tps[2] >= tps[0]*0.98 {
		t.Fatalf("no visible cross-region degradation: %.2f vs %.2f", tps[2], tps[0])
	}
}

func TestSweepFillsAllCells(t *testing.T) {
	sw := &Sweep{
		ReadRatio: 0.5,
		Scale:     300,
		Locs:      []Location{SameZone},
		SlaveNums: []int{1, 2},
		UserNums:  []int{50, 100},
		Opts:      SweepOpts{Short: true, Seed: 900},
	}
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != 4 {
		t.Fatalf("results: %d, want 4", len(sw.Results))
	}
	if len(sw.Baselines) != 2 {
		t.Fatalf("baselines: %d, want 2", len(sw.Baselines))
	}
	for k, r := range sw.Results {
		if r.Throughput <= 0 {
			t.Fatalf("cell %+v has no throughput", k)
		}
	}
	if d := sw.RelativeDelay(SameZone, 1, 100); d <= 0 {
		t.Fatalf("relative delay = %v", d)
	}
	out := sw.RenderThroughput("FIG test")
	if !strings.Contains(out, "users") || !strings.Contains(out, "1 slv") {
		t.Fatalf("render output malformed:\n%s", out)
	}
	if csv := sw.CSV(); !strings.Contains(csv, "same zone") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
	if sat := sw.RenderSaturation("FIG test"); !strings.Contains(sat, "slaves") {
		t.Fatalf("saturation table malformed:\n%s", sat)
	}
}

func TestSaturationPointDefinition(t *testing.T) {
	sw := &Sweep{
		UserNums: []int{50, 100, 150},
		Results: map[Key]RunResult{
			{SameZone, 1, 50}:  {Throughput: 7},
			{SameZone, 1, 100}: {Throughput: 13},
			{SameZone, 1, 150}: {Throughput: 12},
		},
	}
	users, maxTp, ok := sw.SaturationPoint(SameZone, 1)
	if !ok || users != 150 || maxTp != 13 {
		t.Fatalf("saturation = %d/%.1f/%v, want 150/13/true (point after max)", users, maxTp, ok)
	}
	// Still rising: not reached.
	sw.Results[Key{SameZone, 1, 150}] = RunResult{Throughput: 20}
	if _, _, ok := sw.SaturationPoint(SameZone, 1); ok {
		t.Fatal("saturation reported while throughput still rising")
	}
}

func TestFig4ReproducesPaperStats(t *testing.T) {
	once, every := Fig4(99)
	if once.Stats.Median < 20 || once.Stats.Median > 40 {
		t.Fatalf("sync-once median %.2f ms, paper ≈28.23", once.Stats.Median)
	}
	if once.Stats.StdDev < 8 || once.Stats.StdDev > 17 {
		t.Fatalf("sync-once σ %.2f ms, paper ≈12.31", once.Stats.StdDev)
	}
	if every.Stats.Median < 2 || every.Stats.Median > 5 {
		t.Fatalf("every-second median %.2f ms, paper ≈3.30", every.Stats.Median)
	}
	if every.Stats.StdDev < 0.4 || every.Stats.StdDev > 2.5 {
		t.Fatalf("every-second σ %.2f ms, paper ≈1.19", every.Stats.StdDev)
	}
	out := RenderFig4(once, every)
	if !strings.Contains(out, "median") {
		t.Fatalf("render: %s", out)
	}
}

func TestTableRTTMatchesPaper(t *testing.T) {
	rows := TableRTT(7)
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	want := map[Location]float64{SameZone: 16, DiffZone: 21, DiffRegion: 173}
	for _, r := range rows {
		w := want[r.Loc]
		if r.HalfRTTMs < w*0.9 || r.HalfRTTMs > w*1.1 {
			t.Fatalf("%s half-RTT %.1f ms, want ≈%.0f", r.Loc, r.HalfRTTMs, w)
		}
	}
	if out := RenderRTT(rows); !strings.Contains(out, "same zone") {
		t.Fatalf("render: %s", out)
	}
}

func TestSyncModeAblationSpec(t *testing.T) {
	// A sync-mode run completes and reports sane throughput (lower than
	// async at the same point because writers block on cross-slave acks).
	asyncRes, err := Run(shortSpec(75, 2, DiffRegion, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	spec := shortSpec(75, 2, DiffRegion, 0.5, 300)
	spec.Mode = repl.Sync
	syncRes, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if syncRes.Throughput >= asyncRes.Throughput {
		t.Fatalf("sync throughput %.2f not below async %.2f over a 173ms link",
			syncRes.Throughput, asyncRes.Throughput)
	}
	if syncRes.AvgDelayMs > asyncRes.AvgDelayMs {
		t.Fatalf("sync staleness %.1f ms should not exceed async %.1f ms",
			syncRes.AvgDelayMs, asyncRes.AvgDelayMs)
	}
}

func TestLocationStringsAndPlacements(t *testing.T) {
	if SameZone.SlavePlacement() != MasterPlacement {
		t.Fatal("same zone placement mismatch")
	}
	if DiffZone.SlavePlacement().Region != MasterPlacement.Region {
		t.Fatal("different zone must stay in region")
	}
	if DiffRegion.SlavePlacement().Region == MasterPlacement.Region {
		t.Fatal("different region must leave the region")
	}
	for _, loc := range []Location{SameZone, DiffZone, DiffRegion} {
		if loc.String() == "" {
			t.Fatal("empty location name")
		}
	}
}

// TestApplierPriorityCollapsesDelay verifies the A-PRIO ablation: with the
// SQL thread scheduled at high priority the staleness blow-up disappears.
func TestApplierPriorityCollapsesDelay(t *testing.T) {
	normal, err := Run(shortSpec(150, 2, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	spec := shortSpec(150, 2, SameZone, 0.5, 300)
	spec.PriorityApply = true
	prio, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if prio.AvgDelayMs >= normal.AvgDelayMs/3 {
		t.Fatalf("prioritized applier delay %.1f ms not ≪ FIFO delay %.1f ms",
			prio.AvgDelayMs, normal.AvgDelayMs)
	}
	if prio.Throughput < normal.Throughput*0.7 {
		t.Fatalf("prioritized applier cost too much throughput: %.2f vs %.2f",
			prio.Throughput, normal.Throughput)
	}
}

// TestArchitectureAblation verifies the §II architectural trade-off: the
// multi-master group accepts writes at any node but pays ordering latency,
// so its write latency exceeds master-slave's async commit on the same
// hardware, while both serve the moderate workload.
func TestArchitectureAblation(t *testing.T) {
	rows, err := AblationArchitectures(SweepOpts{Short: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	ms, mm := rows[0], rows[1]
	if ms.Throughput <= 0 || mm.Throughput <= 0 {
		t.Fatalf("throughputs: %+v", rows)
	}
	if mm.WriteLatencyMs <= ms.WriteLatencyMs {
		t.Fatalf("multi-master write latency %.1f ms should exceed master-slave %.1f ms (ordering round trip)",
			mm.WriteLatencyMs, ms.WriteLatencyMs)
	}
	if out := RenderArchitectures(rows); !strings.Contains(out, "multi-master") {
		t.Fatalf("render: %s", out)
	}
}

func TestLagSeriesSampled(t *testing.T) {
	res, err := Run(shortSpec(100, 1, SameZone, 0.5, 300))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LagSeries) != 1 {
		t.Fatalf("lag series: %d", len(res.LagSeries))
	}
	pts := res.LagSeries[0].Points()
	if len(pts) < 10 {
		t.Fatalf("lag samples: %d", len(pts))
	}
	// Near saturation the backlog at the end of steady state exceeds the
	// early-ramp backlog.
	early, late := pts[2].V, pts[len(pts)/2].V
	if late <= early {
		t.Fatalf("backlog did not grow under saturation: early %v late %v", early, late)
	}
}

func TestAblationRenderers(t *testing.T) {
	sync := []SyncModeResult{
		{Mode: repl.Async, Loc: SameZone, Res: RunResult{Throughput: 14, WriteLatencyMsMean: 120, LatencyMsMean: 130, AvgDelayMs: 90}},
		{Mode: repl.Sync, Loc: DiffRegion, Res: RunResult{Throughput: 9, WriteLatencyMsMean: 520, LatencyMsMean: 300, AvgDelayMs: 20}},
	}
	if out := RenderSyncModes(sync); !strings.Contains(out, "semi-sync waits") || !strings.Contains(out, "async") {
		t.Fatalf("sync render:\n%s", out)
	}
	bal := []BalancerResult{{Name: "round-robin", Res: RunResult{Throughput: 20, AvgDelayMs: 5000}}}
	if out := RenderBalancers(bal); !strings.Contains(out, "round-robin") {
		t.Fatalf("balancer render:\n%s", out)
	}
	v := VariationResult{HomogeneousTp: 13.5, SampleTps: []float64{12, 14}, MeanTp: 13, CoV: 0.08, MinTp: 12, MaxTp: 14}
	if out := RenderVariation(v); !strings.Contains(out, "homogeneous control") {
		t.Fatalf("variation render:\n%s", out)
	}
	pr := PriorityResult{
		Normal:      RunResult{Throughput: 20, AvgDelayMs: 60000, LatencyMsMean: 250},
		Prioritized: RunResult{Throughput: 19, AvgDelayMs: 200, LatencyMsMean: 280},
	}
	if out := RenderApplierPriority(pr); !strings.Contains(out, "FIFO (MySQL-like)") {
		t.Fatalf("priority render:\n%s", out)
	}
}

func TestPipelineResultAccessorsAndRender(t *testing.T) {
	r := PipelineResult{
		Loc:      SameZone,
		UserNums: []int{50, 100, 150},
		Curves: []PipelineCurve{
			{
				Variant: "baseline", Slaves: 4,
				Unloaded: RunResult{AvgDelayMs: 40},
				Points: []PipelinePoint{
					{Users: 50, Res: RunResult{Throughput: 10, P95DelayMs: 90}},
					{Users: 100, Res: RunResult{Throughput: 21, P95DelayMs: 300}},
					{Users: 150, Res: RunResult{Throughput: 19, P95DelayMs: 9000}},
				},
				KneeUsers: 150, MaxTp: 21, KneeFound: true,
			},
			{
				Variant: "full-pipeline", Slaves: 4,
				Unloaded: RunResult{AvgDelayMs: 41},
				Points: []PipelinePoint{
					{Users: 50, Res: RunResult{Throughput: 10, P95DelayMs: 85}},
					{Users: 100, Res: RunResult{Throughput: 22, P95DelayMs: 250}},
					{Users: 150, Res: RunResult{Throughput: 27, P95DelayMs: 400}},
				},
				KneeUsers: 150, MaxTp: 27, KneeFound: false,
			},
		},
	}
	c := r.Curve("baseline", 4)
	if c == nil || c.MaxTp != 21 {
		t.Fatalf("Curve lookup failed: %+v", c)
	}
	if r.Curve("baseline", 2) != nil || r.Curve("nope", 4) != nil {
		t.Fatal("Curve matched a missing variant/slave combination")
	}
	// p95 at or below the knee: the 150-user point is AT the knee so it
	// counts; for the unbounded curve every point counts.
	if got := c.loadedP95(); got != 9000 {
		t.Fatalf("baseline loadedP95 = %v, want 9000", got)
	}
	if got := r.Curve("full-pipeline", 4).loadedP95(); got != 400 {
		t.Fatalf("full-pipeline loadedP95 = %v, want 400", got)
	}
	out := RenderPipeline(r)
	for _, want := range []string{"A-PIPELINE", "baseline", "full-pipeline", ">150"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, err := json.Marshal(PipelineJSON(r)); err != nil {
		t.Fatalf("PipelineJSON not marshalable: %v", err)
	}
}
