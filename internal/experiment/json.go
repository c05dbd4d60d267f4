package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cloudrepl/internal/metrics"
)

// This file flattens every figure/ablation result into plain data-only
// structures and writes them as BENCH_<name>.json. RunResult itself is not
// marshalable (its spec carries balancer constructors), and raw structs
// would couple the JSON schema to internal field names — these rows are the
// stable machine-readable surface tracked across PRs.

// locTag is a short stable location key for JSON ("same-zone", not the
// human string with the zone id in parentheses).
func locTag(l Location) string {
	switch l {
	case SameZone:
		return "same-zone"
	case DiffZone:
		return "diff-zone"
	default:
		return "diff-region"
	}
}

// runRow is one experiment run's scalar measurements.
type runRow struct {
	Loc            string  `json:"loc"`
	Slaves         int     `json:"slaves"`
	Users          int     `json:"users"`
	ThroughputOps  float64 `json:"throughput_ops"`
	DelayMs        float64 `json:"delay_ms"`
	MasterUtil     float64 `json:"master_util"`
	LatencyMs      float64 `json:"latency_ms"`
	WriteLatencyMs float64 `json:"write_latency_ms"`
	Errors         int     `json:"errors"`
	// Metrics is the end-of-run registry snapshot (component counters keyed
	// "<component>.<metric>"); map marshaling is deterministic because
	// encoding/json sorts keys.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func newRunRow(res RunResult) runRow {
	return runRow{
		Loc:            locTag(res.Spec.Loc),
		Slaves:         res.Spec.Slaves,
		Users:          res.Spec.Users,
		ThroughputOps:  res.Throughput,
		DelayMs:        res.AvgDelayMs,
		MasterUtil:     res.MasterUtil,
		LatencyMs:      res.LatencyMsMean,
		WriteLatencyMs: res.WriteLatencyMsMean,
		Errors:         res.Errors,
		Metrics:        res.Metrics,
	}
}

// SweepJSON flattens a figure sweep (loaded points plus unloaded
// baselines, with the relative delay already computed per point).
func SweepJSON(sw *Sweep) any {
	type point struct {
		runRow
		RelativeDelayMs float64 `json:"relative_delay_ms"`
	}
	var points []point
	for _, loc := range sw.Locs {
		for _, ns := range sw.SlaveNums {
			for _, us := range sw.UserNums {
				res, ok := sw.Results[Key{loc, ns, us}]
				if !ok {
					continue
				}
				points = append(points, point{newRunRow(res), sw.RelativeDelay(loc, ns, us)})
			}
		}
	}
	return map[string]any{
		"read_ratio": sw.ReadRatio,
		"scale":      sw.Scale,
		"points":     points,
	}
}

// SyncModesJSON flattens A-SYNC.
func SyncModesJSON(rows []SyncModeResult) any {
	type row struct {
		runRow
		Mode string `json:"mode"`
	}
	var out []row
	for _, r := range rows {
		out = append(out, row{newRunRow(r.Res), r.Mode.String()})
	}
	return out
}

// BalancersJSON flattens A-LB.
func BalancersJSON(rows []BalancerResult) any {
	type row struct {
		runRow
		Balancer        string `json:"balancer"`
		MasterFallbacks uint64 `json:"master_fallbacks"`
	}
	var out []row
	for _, r := range rows {
		out = append(out, row{newRunRow(r.Res), r.Name, r.Res.ProxyStats.MasterFallbacks})
	}
	return out
}

// VariationJSON flattens A-VAR.
func VariationJSON(v VariationResult) any {
	return map[string]any{
		"homogeneous_tp": v.HomogeneousTp,
		"sample_tps":     v.SampleTps,
		"mean_tp":        v.MeanTp,
		"cov":            v.CoV,
		"min_tp":         v.MinTp,
		"max_tp":         v.MaxTp,
	}
}

// PriorityJSON flattens A-PRIO.
func PriorityJSON(r PriorityResult) any {
	return map[string]any{
		"fifo":          newRunRow(r.Normal),
		"high_priority": newRunRow(r.Prioritized),
	}
}

// ArchitecturesJSON flattens A-ARCH.
func ArchitecturesJSON(rows []ArchResult) any {
	type row struct {
		Arch           string  `json:"arch"`
		ThroughputOps  float64 `json:"throughput_ops"`
		WriteLatencyMs float64 `json:"write_latency_ms"`
		ReadLatencyMs  float64 `json:"read_latency_ms"`
	}
	var out []row
	for _, r := range rows {
		out = append(out, row{r.Arch, r.Throughput, r.WriteLatencyMs, r.ReadLatencyMs})
	}
	return out
}

// ChaosJSON flattens A-CHAOS.
func ChaosJSON(r ChaosResult) any {
	row := func(sc ChaosScenario) map[string]any {
		return map[string]any{
			"scenario":       sc.Name,
			"throughput_ops": sc.Res.Throughput,
			"pre_rate":       sc.PreRate,
			"dip_pct":        sc.DipPct,
			"recovery_sec":   sc.RecoverySec,
			"error_rate":     sc.ErrorRate,
			"max_lag_events": sc.MaxLagEvents,
			"failovers":      sc.Res.ProxyStats.Failovers,
			"final_master":   sc.Res.FinalMaster,
			// The proxy's robustness counters: a run that recovered by
			// retrying, timing out or benching a slave reads non-zero here.
			"retries":            sc.Res.ProxyStats.Retries,
			"timeouts":           sc.Res.ProxyStats.Timeouts,
			"slave_evictions":    sc.Res.ProxyStats.SlaveEvictions,
			"slave_readmissions": sc.Res.ProxyStats.SlaveReadmissions,
		}
	}
	return map[string]any{
		"crash_at_sec":       r.CrashAt.Seconds(),
		"slave_down_for_sec": r.SlaveDownFor.Seconds(),
		"scenarios":          []any{row(r.Baseline), row(r.SlaveCrash), row(r.MasterCrash)},
	}
}

// Fig4JSON flattens the clock-synchronization traces.
func Fig4JSON(once, everySecond ClockResult) any {
	row := func(c ClockResult) map[string]any {
		return map[string]any{
			"label":      c.Label,
			"samples_ms": c.SamplesM,
			"mean_ms":    c.Stats.Mean,
			"max_ms":     c.Stats.Max,
		}
	}
	return []any{row(once), row(everySecond)}
}

// RTTJSON flattens the half-RTT table.
func RTTJSON(rows []RTTResult) any {
	type row struct {
		Loc       string  `json:"loc"`
		HalfRTTMs float64 `json:"half_rtt_ms"`
		MedianMs  float64 `json:"median_ms"`
		MinMs     float64 `json:"min_ms"`
		MaxMs     float64 `json:"max_ms"`
		Samples   int     `json:"samples"`
	}
	var out []row
	for _, r := range rows {
		out = append(out, row{locTag(r.Loc), r.HalfRTTMs, r.MedianMs, r.MinMs, r.MaxMs, r.NumSamples})
	}
	return out
}

// seriesJSON flattens a sampled time series to (t_sec, v) pairs.
func seriesJSON(ts *metrics.TimeSeries) any {
	type pt struct {
		TSec float64 `json:"t_sec"`
		V    float64 `json:"v"`
	}
	out := []pt{} // marshal as [], not null, when empty
	if ts == nil {
		return out
	}
	for _, p := range ts.Points() {
		out = append(out, pt{time.Duration(p.T).Seconds(), p.V})
	}
	return out
}

// ElasticJSON flattens A-ELASTIC, decision logs and fleet series included.
func ElasticJSON(r ElasticResult) any {
	type stage struct {
		Users  int     `json:"users"`
		DurSec float64 `json:"dur_sec"`
	}
	type decision struct {
		TSec   float64 `json:"t_sec"`
		Action string  `json:"action"`
		Slave  string  `json:"slave,omitempty"`
		Slaves int     `json:"slaves"`
		Reason string  `json:"reason"`
	}
	var stages []stage
	for _, s := range r.Stages {
		stages = append(stages, stage{s.Users, s.Dur.Seconds()})
	}
	var fleets []map[string]any
	for _, f := range r.Fleets {
		ds := []decision{} // marshal as [], not null, for fixed fleets
		for _, d := range f.Decisions {
			ds = append(ds, decision{time.Duration(d.T).Seconds(), d.Action, d.Slave, d.Slaves, d.Reason})
		}
		fleets = append(fleets, map[string]any{
			"name":                f.Name,
			"policy":              f.Policy,
			"throughput_ops":      f.Throughput,
			"errors":              f.Errors,
			"slo_violation_sec":   f.SLOViolation.Seconds(),
			"slave_vm_minutes":    f.SlaveVMMinutes,
			"final_slaves":        f.FinalSlaves,
			"peak_slaves":         f.PeakSlaves,
			"master_bound":        f.MasterBound,
			"master_bound_at_sec": f.MasterBoundAt.Seconds(),
			"master_bound_slaves": f.MasterBoundSlaves,
			"verdict":             f.Verdict,
			"decisions":           ds,
			"slaves_series":       seriesJSON(f.SlavesSeries),
			"ops_series":          seriesJSON(f.ThroughputSeries),
		})
	}
	return map[string]any{
		"slo_target_ms": r.SLOTargetMs,
		"stages":        stages,
		"fleets":        fleets,
	}
}

// PipelineJSON flattens A-PIPELINE: one object per variant × slave-count
// curve with its knee, unloaded baseline, and per-point p95 tail delays.
func PipelineJSON(r PipelineResult) any {
	type point struct {
		runRow
		P95DelayMs float64 `json:"p95_delay_ms"`
	}
	var curves []map[string]any
	for _, c := range r.Curves {
		points := []point{}
		var last RunResult
		for _, pt := range c.Points {
			points = append(points, point{newRunRow(pt.Res), pt.Res.P95DelayMs})
			last = pt.Res
		}
		curves = append(curves, map[string]any{
			"variant":           c.Variant,
			"slaves":            c.Slaves,
			"knee_users":        c.KneeUsers,
			"knee_found":        c.KneeFound,
			"max_throughput":    c.MaxTp,
			"unloaded_delay_ms": c.Unloaded.AvgDelayMs,
			"p95_at_knee_ms":    c.loadedP95(),
			"group_commits":     last.ReplStats.GroupCommits,
			"batches_shipped":   last.ReplStats.BatchesShipped,
			"entries_shipped":   last.ReplStats.EntriesShipped,
			"points":            points,
		})
	}
	return map[string]any{
		"loc":    locTag(r.Loc),
		"users":  r.UserNums,
		"curves": curves,
	}
}

// WriteJSON marshals v (indented, trailing newline) into
// <dir>/BENCH_<name>.json, creating dir as needed.
func WriteJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("experiment: marshal %s: %w", name, err)
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
