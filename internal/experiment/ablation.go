package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// SyncModeResult is one row of the A-SYNC ablation.
type SyncModeResult struct {
	Mode repl.Mode
	Loc  Location
	Res  RunResult
}

// AblationSyncModes quantifies the Background-section trade-off (§II):
// async vs semi-sync vs sync replication at a moderate workload, in the
// same zone and across regions. Sync buys freshness at the price of write
// latency (two cross-region hops per commit) and throughput.
func AblationSyncModes(opts SweepOpts) ([]SyncModeResult, error) {
	ramp, steady, down := opts.phases()
	type cell struct {
		loc  Location
		mode repl.Mode
	}
	var cells []cell
	var specs []RunSpec
	for _, loc := range []Location{SameZone, DiffRegion} {
		for _, mode := range []repl.Mode{repl.Async, repl.SemiSync, repl.Sync} {
			cells = append(cells, cell{loc, mode})
			specs = append(specs, RunSpec{
				Seed: opts.Seed + int64(mode) + 10*int64(loc), Users: 100, Slaves: 3,
				Scale: 300, ReadRatio: 0.5, Loc: loc, Mode: mode,
				RampUp: ramp, Steady: steady, RampDown: down,
			})
		}
	}
	results, err := RunShards(specs, opts.Parallelism, func(i int, res RunResult) {
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("sync-mode %-9s %-28s tp=%6.2f wlat=%7.1fms", cells[i].mode, cells[i].loc, res.Throughput, res.WriteLatencyMsMean))
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]SyncModeResult, len(cells))
	for i, c := range cells {
		out[i] = SyncModeResult{c.mode, c.loc, results[i]}
	}
	return out, nil
}

// RenderSyncModes formats A-SYNC.
func RenderSyncModes(rows []SyncModeResult) string {
	var b strings.Builder
	b.WriteString("A-SYNC — synchronization models (100 users, 3 slaves, 50/50)\n\n")
	fmt.Fprintf(&b, "%-30s %-10s %12s %16s %16s %14s\n",
		"slave location", "mode", "tp (ops/s)", "write lat (ms)", "op lat (ms)", "delay (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-10s %12.2f %16.1f %16.1f %14.1f\n",
			r.Loc, r.Mode, r.Res.Throughput, r.Res.WriteLatencyMsMean, r.Res.LatencyMsMean, r.Res.AvgDelayMs)
	}
	b.WriteString("\nasync returns at master commit; semi-sync waits for one relay receipt;\n")
	b.WriteString("sync waits for every slave to apply — freshness bought with write latency.\n")
	return b.String()
}

// BalancerResult is one row of the A-LB ablation.
type BalancerResult struct {
	Name string
	Res  RunResult
}

// AblationBalancers compares read balancers at a workload past slave
// saturation — including the staleness-bounded strategy the paper's §IV-B
// proposes ("a smart load balancer ... balancing the operations"): the
// Bounded tier over round-robin, which trades master load (fallback reads)
// for a bounded client-visible staleness window.
func AblationBalancers(opts SweepOpts) ([]BalancerResult, error) {
	ramp, steady, down := opts.phases()
	cases := []struct {
		name  string
		mk    func() proxy.Balancer
		tier  proxy.Consistency
		bound uint64
	}{
		{name: "round-robin", mk: func() proxy.Balancer { return &proxy.RoundRobin{} }},
		{name: "random", mk: func() proxy.Balancer { return proxy.Random{} }},
		{name: "least-conn", mk: func() proxy.Balancer { return proxy.LeastConn{} }},
		{name: "least-lag", mk: func() proxy.Balancer { return proxy.LeastLag{} }},
		{name: "staleness-bounded(30)", tier: proxy.Bounded, bound: 30},
	}
	specs := make([]RunSpec, len(cases))
	for i, c := range cases {
		specs[i] = RunSpec{
			Seed: opts.Seed + int64(i), Users: 150, Slaves: 2,
			Scale: 300, ReadRatio: 0.5, Loc: SameZone,
			Balancer: c.mk, Consistency: c.tier, MaxStaleEvents: c.bound,
			RampUp: ramp, Steady: steady, RampDown: down,
		}
	}
	results, err := RunShards(specs, opts.Parallelism, func(i int, res RunResult) {
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("balancer %-22s tp=%6.2f delay=%10.1fms fallbacks=%d",
				cases[i].name, res.Throughput, res.AvgDelayMs, res.ProxyStats.MasterFallbacks))
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]BalancerResult, len(cases))
	for i, c := range cases {
		out[i] = BalancerResult{c.name, results[i]}
	}
	return out, nil
}

// RenderBalancers formats A-LB.
func RenderBalancers(rows []BalancerResult) string {
	var b strings.Builder
	b.WriteString("A-LB — read balancers past slave saturation (150 users, 2 slaves, 50/50, same zone)\n\n")
	fmt.Fprintf(&b, "%-24s %12s %14s %18s %12s\n",
		"balancer", "tp (ops/s)", "delay (ms)", "master fallbacks", "master util")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %12.2f %14.1f %18d %11.0f%%\n",
			r.Name, r.Res.Throughput, r.Res.AvgDelayMs, r.Res.ProxyStats.MasterFallbacks, r.Res.MasterUtil*100)
	}
	return b.String()
}

// VariationResult is the A-VAR ablation output.
type VariationResult struct {
	HomogeneousTp float64
	SampleTps     []float64
	MeanTp        float64
	CoV           float64
	MinTp         float64
	MaxTp         float64
}

// AblationInstanceVariation launches the same 1-slave experiment many
// times with the CoV-21% instance lottery (Schad et al.; §IV-A's
// "performance variation of instances is an inevitable issue") and reports
// the throughput spread against a homogeneous control.
func AblationInstanceVariation(opts SweepOpts, samples int) (VariationResult, error) {
	ramp, steady, down := opts.phases()
	mk := func(seed int64, hetero bool) RunSpec {
		return RunSpec{
			// 150 users on one slave: firmly slave-CPU-bound, so throughput
			// tracks the instance's drawn speed instead of the think-time
			// ceiling.
			Seed: seed, Users: 150, Slaves: 1, Scale: 300, ReadRatio: 0.5,
			Loc: SameZone, Heterogeneous: hetero,
			RampUp: ramp, Steady: steady, RampDown: down,
		}
	}
	// Control run rides in shard 0 of the same fan-out as the samples.
	specs := make([]RunSpec, samples+1)
	specs[0] = mk(opts.Seed, false)
	for i := 0; i < samples; i++ {
		specs[i+1] = mk(opts.Seed+100+int64(i), true)
	}
	results, err := RunShards(specs, opts.Parallelism, nil)
	if err != nil {
		return VariationResult{}, err
	}
	out := VariationResult{HomogeneousTp: results[0].Throughput, MinTp: math.Inf(1)}
	var sum, sumsq float64
	for i, res := range results[1:] {
		tp := res.Throughput
		out.SampleTps = append(out.SampleTps, tp)
		sum += tp
		sumsq += tp * tp
		if tp < out.MinTp {
			out.MinTp = tp
		}
		if tp > out.MaxTp {
			out.MaxTp = tp
		}
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("variation sample %2d: tp=%6.2f", i+1, tp))
		}
	}
	n := float64(samples)
	out.MeanTp = sum / n
	variance := sumsq/n - out.MeanTp*out.MeanTp
	if variance < 0 {
		variance = 0
	}
	out.CoV = math.Sqrt(variance) / out.MeanTp
	return out, nil
}

// RenderVariation formats A-VAR.
func RenderVariation(v VariationResult) string {
	var b strings.Builder
	b.WriteString("A-VAR — instance performance lottery (150 users, 1 slave, 50/50, CoV 21% CPUs)\n\n")
	fmt.Fprintf(&b, "homogeneous control: %6.2f ops/s\n", v.HomogeneousTp)
	fmt.Fprintf(&b, "heterogeneous draws: mean %.2f  min %.2f  max %.2f  CoV %.1f%%  (n=%d)\n",
		v.MeanTp, v.MinTp, v.MaxTp, v.CoV*100, len(v.SampleTps))
	b.WriteString("\nthe paper's advice follows: validate instance performance before deploying,\n")
	b.WriteString("since a slow physical host visibly caps end-to-end throughput (§IV-A).\n")
	return b.String()
}

// PriorityResult is the A-PRIO ablation output: the same saturated run
// with and without a prioritized SQL applier.
type PriorityResult struct {
	Normal      RunResult
	Prioritized RunResult
}

// AblationApplierPriority quantifies the design choice DESIGN.md §6 calls
// out: the staleness blow-up near saturation is caused by the single SQL
// applier starving behind client reads in the slave's FIFO CPU queue.
// Scheduling apply work at high priority collapses replication delay by
// orders of magnitude, with the cost surfacing as higher client latency on
// the saturated replicas.
func AblationApplierPriority(opts SweepOpts) (PriorityResult, error) {
	ramp, steady, down := opts.phases()
	mk := func(prio bool) RunSpec {
		return RunSpec{
			Seed: opts.Seed, Users: 150, Slaves: 2, Scale: 300, ReadRatio: 0.5,
			Loc: SameZone, PriorityApply: prio,
			RampUp: ramp, Steady: steady, RampDown: down,
		}
	}
	results, err := RunShards([]RunSpec{mk(false), mk(true)}, opts.Parallelism, nil)
	if err != nil {
		return PriorityResult{}, err
	}
	normal, prio := results[0], results[1]
	if opts.Progress != nil {
		opts.Progress(fmt.Sprintf("applier priority: delay %0.1fms → %0.1fms", normal.AvgDelayMs, prio.AvgDelayMs))
	}
	return PriorityResult{Normal: normal, Prioritized: prio}, nil
}

// RenderApplierPriority formats A-PRIO.
func RenderApplierPriority(r PriorityResult) string {
	var b strings.Builder
	b.WriteString("A-PRIO — prioritized SQL applier at saturation (150 users, 2 slaves, 50/50)\n\n")
	fmt.Fprintf(&b, "%-22s %12s %16s %14s\n", "applier scheduling", "tp (ops/s)", "delay (ms)", "op lat (ms)")
	fmt.Fprintf(&b, "%-22s %12.2f %16.1f %14.1f\n", "FIFO (MySQL-like)",
		r.Normal.Throughput, r.Normal.AvgDelayMs, r.Normal.LatencyMsMean)
	fmt.Fprintf(&b, "%-22s %12.2f %16.1f %14.1f\n", "high priority",
		r.Prioritized.Throughput, r.Prioritized.AvgDelayMs, r.Prioritized.LatencyMsMean)
	b.WriteString("\nthe single applier starving behind reads causes the paper's delay blow-up;\n")
	b.WriteString("prioritizing the replication pipeline collapses staleness by orders of\n")
	b.WriteString("magnitude, paid for with higher client latency on the saturated replicas.\n")
	return b.String()
}

// ArchResult compares the two replication architectures of the paper's §II
// on identical hardware and workload.
type ArchResult struct {
	Arch           string
	Throughput     float64
	WriteLatencyMs float64
	ReadLatencyMs  float64
}

// AblationArchitectures runs the same closed-loop workload against (a) the
// paper's master-slave deployment (1 master + 2 slaves) and (b) a 3-node
// multi-master group with a total-order sequencer, on identical instances.
// Master-slave commits writes locally (async) but funnels them through one
// node; multi-master spreads write acceptance but pays the ordering round
// trip and applies every write everywhere.
func AblationArchitectures(opts SweepOpts) ([]ArchResult, error) {
	ramp, steady, down := opts.phases()
	_ = ramp
	users := 120
	ratio := 0.5
	think := 7 * time.Second
	measure := steady
	warm := down // reuse the short phase as warmup

	place := MasterPlacement
	preload := func(srv *server.DBServer) error {
		sess := srv.Session("")
		for _, sql := range []string{
			"CREATE DATABASE bench",
			"USE bench",
			"CREATE TABLE kv (k BIGINT PRIMARY KEY, v VARCHAR(32))",
		} {
			if _, err := srv.ExecFree(sess, sql); err != nil {
				return err
			}
		}
		for i := 0; i < 500; i++ {
			if _, err := srv.ExecFree(sess, "INSERT INTO kv (k, v) VALUES (?, 'seed')",
				sqlengine.NewInt(int64(i))); err != nil {
				return err
			}
		}
		return nil
	}

	var out []ArchResult

	// (a) master-slave through the standard stack.
	{
		env := sim.NewEnv(opts.Seed)
		c := cloud.New(env, cloud.Config{})
		clu, err := cluster.New(env, c, cluster.Config{
			Cost:    server.DefaultCostModel(),
			Master:  cluster.NodeSpec{Place: place},
			Slaves:  []cluster.NodeSpec{{Place: place}, {Place: place}},
			Preload: preload,
		})
		if err != nil {
			return nil, err
		}
		db := core.Open(clu, core.WithDatabase("bench"), core.WithClientPlace(place))
		res := runArchLoad(env, users, ratio, think, warm, measure,
			func(p *sim.Proc, i int) (time.Duration, error) {
				t0 := p.Now()
				_, err := db.Exec(p, "SELECT v FROM kv WHERE k = ?", sqlengine.NewInt(int64(p.Rand().Intn(500))))
				return p.Now() - t0, err
			},
			func(p *sim.Proc, i, n int) (time.Duration, error) {
				t0 := p.Now()
				_, err := db.Exec(p, "INSERT INTO kv (k, v) VALUES (?, 'w')", sqlengine.NewInt(int64(1_000_000+i*1_000_000+n)))
				return p.Now() - t0, err
			})
		res.Arch = "master-slave (1M+2S)"
		out = append(out, res)
		env.Stop()
		env.Shutdown()
	}

	// (b) multi-master over the same three instances.
	{
		env := sim.NewEnv(opts.Seed)
		c := cloud.New(env, cloud.Config{})
		var servers []*server.DBServer
		for i := 0; i < 3; i++ {
			srv := server.New(env, fmt.Sprintf("node%d", i),
				c.Launch(fmt.Sprintf("node%d", i), cloud.Small, place), server.DefaultCostModel())
			if err := preload(srv); err != nil {
				return nil, err
			}
			servers = append(servers, srv)
		}
		mm := repl.NewMultiMaster(env, c.Network(), servers, place)
		res := runArchLoad(env, users, ratio, think, warm, measure,
			func(p *sim.Proc, i int) (time.Duration, error) {
				t0 := p.Now()
				_, err := mm.Node(i%3).ExecRead(p, "bench", "SELECT v FROM kv WHERE k = ?",
					sqlengine.NewInt(int64(p.Rand().Intn(500))))
				return p.Now() - t0, err
			},
			func(p *sim.Proc, i, n int) (time.Duration, error) {
				t0 := p.Now()
				err := mm.Node(i%3).ExecWrite(p, "bench", "INSERT INTO kv (k, v) VALUES (?, 'w')",
					sqlengine.NewInt(int64(1_000_000+i*1_000_000+n)))
				return p.Now() - t0, err
			})
		res.Arch = "multi-master (3 nodes)"
		out = append(out, res)
		env.Stop()
		env.Shutdown()
	}

	if opts.Progress != nil {
		for _, r := range out {
			opts.Progress(fmt.Sprintf("arch %-24s tp=%6.2f wlat=%7.1fms", r.Arch, r.Throughput, r.WriteLatencyMs))
		}
	}
	return out, nil
}

// runArchLoad drives a closed-loop 50/50-style workload and measures
// steady-state throughput and latencies.
func runArchLoad(env *sim.Env, users int, ratio float64, think, warm, measure time.Duration,
	read func(*sim.Proc, int) (time.Duration, error),
	write func(*sim.Proc, int, int) (time.Duration, error)) ArchResult {
	var ops int
	var rLatSum, wLatSum time.Duration
	var rN, wN int
	from, to := warm, warm+measure
	for i := 0; i < users; i++ {
		i := i
		env.Go(fmt.Sprintf("u%d", i), func(p *sim.Proc) {
			for n := 0; p.Now() < to; n++ {
				var lat time.Duration
				var err error
				isRead := p.Rand().Float64() < ratio
				if isRead {
					lat, err = read(p, i)
				} else {
					lat, err = write(p, i, n)
				}
				if err == nil && p.Now() >= from && p.Now() < to {
					ops++
					if isRead {
						rLatSum += lat
						rN++
					} else {
						wLatSum += lat
						wN++
					}
				}
				p.Sleep(sim.Exp(p.Rand(), think))
			}
		})
	}
	env.RunUntil(to)
	res := ArchResult{Throughput: float64(ops) / measure.Seconds()}
	if rN > 0 {
		res.ReadLatencyMs = float64(rLatSum.Milliseconds()) / float64(rN)
	}
	if wN > 0 {
		res.WriteLatencyMs = float64(wLatSum.Milliseconds()) / float64(wN)
	}
	return res
}

// RenderArchitectures formats A-ARCH.
func RenderArchitectures(rows []ArchResult) string {
	var b strings.Builder
	b.WriteString("A-ARCH — master-slave vs multi-master on identical hardware (120 users, 50/50)\n\n")
	fmt.Fprintf(&b, "%-26s %12s %16s %16s\n", "architecture", "tp (ops/s)", "write lat (ms)", "read lat (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %12.2f %16.1f %16.1f\n", r.Arch, r.Throughput, r.WriteLatencyMs, r.ReadLatencyMs)
	}
	b.WriteString("\nmaster-slave commits writes at one node (async to slaves); multi-master\n")
	b.WriteString("accepts writes anywhere but pays total-ordering latency and applies every\n")
	b.WriteString("write on every node — the §II trade-off made concrete.\n")
	return b.String()
}
