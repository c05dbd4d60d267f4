package experiment

import (
	"fmt"
	"strings"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/shard"
	"cloudrepl/internal/sim"
)

// ShardArmResult is one arm of the A-SHARD ablation: the Cloudstone mix at
// a fixed user population against an N-cell sharded tier.
type ShardArmResult struct {
	Cells     int
	Users     int
	Slaves    int     // replicas per cell
	ReadRatio float64 // fraction of operations that are reads

	Throughput      float64
	ReadThroughput  float64
	WriteThroughput float64
	Errors          int
	LatencyMsMean   float64

	// Tail latency by route class: single-key statements stay flat as
	// cells are added; scatter reads pay the slowest-leg price.
	SingleP95Ms  float64
	ScatterP95Ms float64
	ScatterP99Ms float64

	// PerCellOps is the statements served by each cell's proxy — the
	// balance check for the hash map's slot distribution.
	PerCellOps []uint64
	Stats      shard.Stats
	Metrics    map[string]float64
}

// ShardSplitResult is the live-split arm: a 2-cell tier under steady load
// grows to 3 cells online; the interesting numbers are the write-freeze
// window and that no operation and no row is lost.
type ShardSplitResult struct {
	Users      int
	Report     *shard.SplitReport
	Throughput float64
	Errors     int
	// RowsBefore/RowsAfter count one sharded table across all cells right
	// before and after the split (exactly-once placement check).
	RowsBefore, RowsAfter int
}

// ShardingResult is the A-SHARD ablation output.
type ShardingResult struct {
	Users      int
	Arms       []ShardArmResult
	Split      ShardSplitResult
	SpeedupAt4 float64 // 4-cell throughput over 1-cell, fixed users
}

type shardArmSpec struct {
	seed                 int64
	users, cells, slaves int
	scale                int
	readRatio            float64
	ramp, steady, down   time.Duration
	split                bool // grow by one cell at mid-steady
}

// AblationSharding runs the scale-out ablation the single-master paper
// stops short of (§V: "once the master is write-bound, add masters"): the
// same Cloudstone mix, fixed user population, against 1/2/4(/8) shard
// cells. Cross-shard reads are on (25% of reads are a friend-feed page
// spanning cells), so the speedup prices in real scatter traffic, not an
// embarrassingly-parallel best case. A separate arm splits 2 cells into 3
// under load and reports the cutover window.
func AblationSharding(opts SweepOpts) (ShardingResult, error) {
	ramp, steady, down := opts.phases()
	users := 1200
	cellGrid := []int{1, 2, 4}
	if !opts.Short {
		cellGrid = []int{1, 2, 4, 8}
	}

	out := ShardingResult{Users: users}
	for i, cells := range cellGrid {
		arm, err := runShardArm(shardArmSpec{
			seed: opts.Seed + int64(i), users: users, cells: cells, slaves: 1,
			scale: 300, readRatio: 0.2, ramp: ramp, steady: steady, down: down,
		})
		if err != nil {
			return out, err
		}
		out.Arms = append(out.Arms, arm.arm)
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf(
				"shard %d-cell %4d users  tp=%7.2f ops/s  err=%d  single-p95=%6.1fms scatter-p95=%6.1fms",
				cells, users, arm.arm.Throughput, arm.arm.Errors, arm.arm.SingleP95Ms, arm.arm.ScatterP95Ms))
		}
	}
	for _, a := range out.Arms {
		if a.Cells == 4 && out.Arms[0].Cells == 1 && out.Arms[0].Throughput > 0 {
			out.SpeedupAt4 = a.Throughput / out.Arms[0].Throughput
		}
	}

	// Live split at moderate load: the source cell's slaves must keep
	// apply headroom under the copy-era backlog (writes during the copy
	// land in the binlog and must be chased down to a bounded lag before
	// the barrier) or the cutover correctly aborts rather than extending
	// the write freeze behind replicas that cannot catch up.
	sp, err := runShardArm(shardArmSpec{
		seed: opts.Seed + 100, users: 150, cells: 2, slaves: 2,
		scale: 300, readRatio: 0.5, ramp: ramp, steady: steady, down: down, split: true,
	})
	if err != nil {
		return out, err
	}
	out.Split = sp.split
	if opts.Progress != nil {
		rep := sp.split.Report
		status := ""
		if rep.Aborted {
			status = "  ABORTED: " + rep.Err
		}
		opts.Progress(fmt.Sprintf(
			"shard split 2→3 %4d users  tp=%7.2f ops/s  moved=%d rows  copy=%v  downtime=%v  err=%d%s",
			sp.split.Users, sp.split.Throughput, rep.MovedRows,
			rep.CopyDuration.Truncate(time.Millisecond), rep.Downtime.Truncate(time.Millisecond),
			sp.split.Errors, status))
	}
	return out, nil
}

type shardArmOut struct {
	arm   ShardArmResult
	split ShardSplitResult
}

// runShardArm executes one sharded point on its own virtual timeline.
func runShardArm(s shardArmSpec) (shardArmOut, error) {
	env := sim.NewEnv(s.seed)
	cloudCfg := cloud.DefaultConfig()
	cloudCfg.CPUCoV = 0 // homogeneous cells: curves reflect sharding, not luck
	c := cloud.New(env, cloudCfg)

	slaveSpecs := make([]cluster.NodeSpec, s.slaves)
	for i := range slaveSpecs {
		slaveSpecs[i] = cluster.NodeSpec{Place: SameZone.SlavePlacement()}
	}
	db, err := core.OpenSharded(env, c, cluster.Config{
		Mode:   repl.Async,
		Cost:   server.DefaultCostModel(),
		Master: cluster.NodeSpec{Place: MasterPlacement},
		Slaves: slaveSpecs,
	},
		core.WithShards(s.cells),
		core.WithDatabase(cloudstone.DatabaseName),
		core.WithClientPlace(MasterPlacement),
		core.WithKeyspace(cloudstone.ShardKeyspace()),
		core.WithPartitionedPreload(func(owns func(table string, key int64) bool) func(*server.DBServer) error {
			return cloudstone.PreloadOwned(s.scale, owns)
		}),
		core.WithPool(pool.Config{MaxActive: s.users + 8, MaxIdle: s.users + 8}),
	)
	if err != nil {
		return shardArmOut{}, fmt.Errorf("shard arm (%d cells): %w", s.cells, err)
	}

	startNTP(env, c)

	driver := cloudstone.NewDriver(db, cloudstone.Config{
		Scale: s.scale, ReadRatio: s.readRatio, Users: s.users,
		RampUp: s.ramp, Steady: s.steady, RampDown: s.down,
		CrossShard: true,
	})
	driver.Start(env)

	var rowsBefore int
	var rep *shard.SplitReport
	if s.split {
		// Fire shortly after steady state opens: the copy takes minutes,
		// so starting early keeps the cutover barrier inside the
		// measurement window — the throughput and error numbers price in
		// the write freeze.
		env.Go("shard/splitter", func(p *sim.Proc) {
			from, _ := driver.SteadyWindow()
			p.SleepUntil(from + 30*time.Second)
			rowsBefore, _ = db.Shards().RowCount("events")
			rep, err = db.SplitShard(p)
		})
	}

	total := s.ramp + s.steady + s.down
	env.RunUntil(env.Now() + total)
	env.RunUntil(env.Now() + 2*time.Minute) // let in-flight replication land

	dres := driver.Result()
	sc := db.Shards()
	arm := ShardArmResult{
		Cells: s.cells, Users: s.users, Slaves: s.slaves, ReadRatio: s.readRatio,
		Throughput: dres.Throughput, ReadThroughput: dres.ReadThroughput,
		WriteThroughput: dres.WriteThroughput, Errors: dres.Errors,
		LatencyMsMean: dres.Latency.Mean,
		SingleP95Ms:   metrics.Quantile(sc.SingleLatency().Float64s(), 0.95),
		ScatterP95Ms:  metrics.Quantile(sc.ScatterLatency().Float64s(), 0.95),
		ScatterP99Ms:  metrics.Quantile(sc.ScatterLatency().Float64s(), 0.99),
		PerCellOps:    sc.CellThroughput(),
		Stats:         sc.Stats(),
		Metrics:       db.Metrics(),
	}

	var split ShardSplitResult
	if s.split {
		if err != nil {
			return shardArmOut{}, fmt.Errorf("shard split arm: %w", err)
		}
		if rep == nil {
			return shardArmOut{}, fmt.Errorf("shard split arm: splitter never ran")
		}
		rowsAfter, cntErr := sc.RowCount("events")
		if cntErr != nil {
			return shardArmOut{}, fmt.Errorf("shard split arm: %w", cntErr)
		}
		split = ShardSplitResult{
			Users: s.users, Report: rep,
			// Any-phase errors: a cutover barrier that outlives the client
			// retry budget bounces statements wherever it lands on the
			// timeline, and hiding out-of-window bounces would overstate
			// the split's transparency.
			Throughput: dres.Throughput, Errors: driver.TotalErrors(),
			RowsBefore: rowsBefore, RowsAfter: rowsAfter,
		}
	}

	env.Stop()
	env.Shutdown()
	return shardArmOut{arm: arm, split: split}, nil
}

// shardArm is the 2-cell arm with a mid-steady split, the most
// event-interleaved configuration the subsystem has.
func shardArm(o SweepOpts) func() (any, error) {
	ramp, steady, down := o.phases()
	if o.Short {
		ramp, steady, down = time.Minute, 3*time.Minute, 30*time.Second
	}
	spec := shardArmSpec{
		seed: o.Seed, users: 150, cells: 2, slaves: 2,
		scale: 300, readRatio: 0.5, ramp: ramp, steady: steady, down: down, split: true,
	}
	return func() (any, error) {
		r, err := runShardArm(spec)
		if err != nil {
			return nil, err
		}
		return struct {
			Arm   ShardArmResult
			Split ShardSplitResult
		}{r.arm, r.split}, nil
	}
}

// RenderSharding formats the A-SHARD ablation for the terminal.
func RenderSharding(r ShardingResult) string {
	var b strings.Builder
	b.WriteString("A-SHARD — cell-sharded scale-out at fixed load (Cloudstone 20/80 read/write, 25% cross-shard reads)\n")
	b.WriteString("the write-heavy regime is the paper's hard ceiling: once the master is\n")
	b.WriteString("write-bound, read replicas buy nothing — only more masters do.\n")
	fmt.Fprintf(&b, "%d users against 1..N independent master+replica cells\n\n", r.Users)
	fmt.Fprintf(&b, "%5s %11s %8s %12s %13s %13s %s\n",
		"cells", "tp (ops/s)", "speedup", "single p95", "scatter p95", "scatter p99", "per-cell ops")
	base := 0.0
	for _, a := range r.Arms {
		if a.Cells == 1 {
			base = a.Throughput
		}
		speedup := "-"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", a.Throughput/base)
		}
		cells := make([]string, len(a.PerCellOps))
		for i, n := range a.PerCellOps {
			cells[i] = fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(&b, "%5d %11.2f %8s %10.1fms %11.1fms %11.1fms [%s]\n",
			a.Cells, a.Throughput, speedup, a.SingleP95Ms, a.ScatterP95Ms, a.ScatterP99Ms,
			strings.Join(cells, " "))
	}
	if rep := r.Split.Report; rep != nil {
		fmt.Fprintf(&b, "\nlive split 2→3 cells under %d users:\n", r.Split.Users)
		if rep.Aborted {
			fmt.Fprintf(&b, "  ABORTED after %v copy (%d rows staged): %s\n",
				rep.CopyDuration.Truncate(time.Millisecond), rep.MovedRows, rep.Err)
			fmt.Fprintf(&b, "  the tier rolled back cleanly: %d client errors, rows intact (%d → %d)\n",
				r.Split.Errors, r.Split.RowsBefore, r.Split.RowsAfter)
		} else {
			fmt.Fprintf(&b, "  moved %d rows in %v copy; write freeze %v; %d catch-up entries, %d dual writes\n",
				rep.MovedRows, rep.CopyDuration.Truncate(time.Millisecond),
				rep.Downtime.Truncate(time.Millisecond), rep.CatchupEntries, rep.DualWrites)
			fmt.Fprintf(&b, "  events rows %d → %d across cells (exactly-once placement), %d bounced statements\n",
				r.Split.RowsBefore, r.Split.RowsAfter, r.Split.Errors)
		}
	}
	b.WriteString("\nsingle-key writes scale with cells because each cell is an independent\n")
	b.WriteString("master — the ceiling the elastic controller reports as master-bound is\n")
	b.WriteString("lifted by adding cells, not replicas. scatter reads pay the slowest-leg\n")
	b.WriteString("price and every cell serves every scatter, so the speedup is sublinear\n")
	b.WriteString("and bends as the fan-out grows. the online split's write freeze is the\n")
	b.WriteString("drain + final-replay + cleanup barrier: statements that arrive during\n")
	b.WriteString("it bounce and retry with backoff, so a freeze inside the retry budget\n")
	b.WriteString("(~2.3s) is invisible and a longer one surfaces as honest errors on the\n")
	b.WriteString("moving slots — never as lost or duplicated rows.\n")
	return b.String()
}

// ShardingJSON shapes the ablation for BENCH_shard.json.
func ShardingJSON(r ShardingResult) any {
	type arm struct {
		Cells             int      `json:"cells"`
		Users             int      `json:"users"`
		ReadRatio         float64  `json:"read_ratio"`
		Throughput        float64  `json:"throughput_ops_s"`
		ReadThroughput    float64  `json:"read_throughput_ops_s"`
		WriteThroughput   float64  `json:"write_throughput_ops_s"`
		Errors            int      `json:"errors"`
		LatencyMsMean     float64  `json:"latency_ms_mean"`
		SingleP95Ms       float64  `json:"single_p95_ms"`
		ScatterP95Ms      float64  `json:"scatter_p95_ms"`
		ScatterP99Ms      float64  `json:"scatter_p99_ms"`
		PerCellOps        []uint64 `json:"per_cell_ops"`
		ScatterOps        uint64   `json:"scatter_ops"`
		WrongShardRetries uint64   `json:"wrong_shard_retries"`
	}
	arms := []arm{}
	for _, a := range r.Arms {
		arms = append(arms, arm{
			Cells: a.Cells, Users: a.Users, ReadRatio: a.ReadRatio,
			Throughput: a.Throughput, ReadThroughput: a.ReadThroughput,
			WriteThroughput: a.WriteThroughput, Errors: a.Errors,
			LatencyMsMean: a.LatencyMsMean, SingleP95Ms: a.SingleP95Ms,
			ScatterP95Ms: a.ScatterP95Ms, ScatterP99Ms: a.ScatterP99Ms,
			PerCellOps: a.PerCellOps, ScatterOps: a.Stats.ScatterOps,
			WrongShardRetries: a.Stats.WrongShardRetries,
		})
	}
	split := map[string]any{}
	if rep := r.Split.Report; rep != nil {
		split = map[string]any{
			"users":            r.Split.Users,
			"moved_rows":       rep.MovedRows,
			"copy_duration_ms": float64(rep.CopyDuration) / float64(time.Millisecond),
			"downtime_ms":      float64(rep.Downtime) / float64(time.Millisecond),
			"catchup_entries":  rep.CatchupEntries,
			"dual_writes":      rep.DualWrites,
			"aborted":          rep.Aborted,
			"rows_before":      r.Split.RowsBefore,
			"rows_after":       r.Split.RowsAfter,
			"errors":           r.Split.Errors,
		}
	}
	return map[string]any{
		"users":        r.Users,
		"speedup_at_4": r.SpeedupAt4,
		"arms":         arms,
		"split":        split,
	}
}
