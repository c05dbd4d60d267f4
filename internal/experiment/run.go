// Package experiment reproduces the paper's evaluation: it builds the full
// stack (simulated EC2, replicated MySQL-style cluster, pool + proxy,
// Cloudstone workload, heartbeat measurement) for one parameter point, runs
// the 35-minute protocol (10 min ramp-up, 20 min steady state, 5 min
// ramp-down), and extracts the two reported metrics — end-to-end throughput
// and average (relative) replication delay — plus diagnostics.
package experiment

import (
	"fmt"
	"time"

	"cloudrepl/internal/chaos"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/vclock"
)

// Location is the paper's slave-placement configuration relative to the
// master in us-west-1a.
type Location int

// The three configurations of Figs. 2–6.
const (
	SameZone   Location = iota // us-west-1a
	DiffZone                   // us-west-1b
	DiffRegion                 // eu-west-1a
)

func (l Location) String() string {
	switch l {
	case SameZone:
		return "same zone (us-west-1a)"
	case DiffZone:
		return "different zone (us-west-1b)"
	default:
		return "different region (eu-west-1a)"
	}
}

// MasterPlacement is where the paper's master and benchmark driver live.
var MasterPlacement = cloud.Placement{Region: cloud.USWest1, Zone: "a"}

// SlavePlacement returns the placement for this location configuration.
func (l Location) SlavePlacement() cloud.Placement {
	switch l {
	case SameZone:
		return cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	case DiffZone:
		return cloud.Placement{Region: cloud.USWest1, Zone: "b"}
	default:
		return cloud.Placement{Region: cloud.EUWest1, Zone: "a"}
	}
}

// RunSpec is one experiment point.
type RunSpec struct {
	Seed      int64
	Users     int // 0 = unloaded baseline (heartbeat only)
	Slaves    int
	Scale     int     // initial data size (300 or 600)
	ReadRatio float64 // 0.5 or 0.8 in the paper; 0 is all writes
	Loc       Location
	Mode      repl.Mode
	// Balancer constructs the read balancer (nil = round-robin, the
	// Connector/J default used by the paper).
	Balancer func() proxy.Balancer
	// Consistency selects the proxy read tier (A-CONSIST sweeps this);
	// the zero value is Eventual, the paper's configuration.
	Consistency proxy.Consistency
	// MaxStaleEvents bounds the Bounded tier
	// (0 = proxy.DefaultMaxEventsBehind).
	MaxStaleEvents uint64
	// Phases overrides the 10/20/5-minute protocol when non-zero.
	RampUp, Steady, RampDown time.Duration
	// Heterogeneous enables the CoV-21% instance speed variation; the
	// figure sweeps keep it off so curves reflect topology, not luck.
	Heterogeneous bool
	// PriorityApply runs slave SQL threads at high CPU priority (A-PRIO).
	PriorityApply bool
	// NaivePlan forces every node's SQL engine to the naive (syntax-order,
	// no-pushdown) query planner; A-PLAN compares it against the default
	// cost-based planner on the join-heavy event-feed reads.
	NaivePlan bool
	// Chaos, when non-nil, arms a fault schedule on the run's timeline
	// (times are absolute virtual time; the run starts at 0).
	Chaos *chaos.Schedule
	// Pipeline configures the replication data path (group commit, batched
	// shipping, parallel apply); the zero value is the classic path the
	// paper measured (A-PIPELINE sweeps this).
	Pipeline repl.PipelineConfig
	// Trace enables end-to-end tracing: every statement's causal chain —
	// client, pool, proxy, server, binlog, slave apply — is recorded as
	// spans on the virtual timeline and exported as Chrome trace-event JSON
	// in RunResult.TraceJSON.
	Trace bool
}

func (s *RunSpec) applyDefaults() {
	if s.Scale == 0 {
		s.Scale = 300
	}
	if s.RampUp == 0 {
		s.RampUp = 10 * time.Minute
	}
	if s.Steady == 0 {
		s.Steady = 20 * time.Minute
	}
	if s.RampDown == 0 {
		s.RampDown = 5 * time.Minute
	}
}

// RunResult is one experiment point's measurements.
type RunResult struct {
	Spec RunSpec

	// Throughput is steady-state completed operations per second.
	Throughput      float64
	ReadThroughput  float64
	WriteThroughput float64
	Errors          int

	// AvgDelayMs is the 5%-trimmed mean heartbeat delay across all slaves
	// (raw, including clock offset — subtract a baseline for the paper's
	// relative delay).
	AvgDelayMs      float64
	PerSlaveDelayMs []float64
	// P95DelayMs is the 95th-percentile heartbeat delay over the pooled
	// per-slave samples (unapplied heartbeats substituted with the worst
	// observed delay) — the tail metric the pipeline ablation guards.
	P95DelayMs float64

	// Utilizations over the steady window.
	MasterUtil float64
	SlaveUtil  []float64

	// LatencyMsMean is the mean client-observed operation latency;
	// WriteLatencyMsMean isolates writes (including the synchronization
	// model's commit wait).
	LatencyMsMean      float64
	WriteLatencyMsMean float64

	// LagSeries samples each slave's events-behind-master every 15 virtual
	// seconds across the whole run — the backlog growth curve behind
	// Figs. 5/6.
	LagSeries []*metrics.TimeSeries

	// OpsSeries samples the driver's cumulative completed operations (all
	// phases) every 15 virtual seconds; chaos analysis differentiates it to
	// get throughput dip and recovery time around an injected fault.
	OpsSeries *metrics.TimeSeries

	// ProxyStats and PoolStats snapshot the middleware counters at the end
	// of the run (retries, timeouts, evictions, failovers, waits, ...);
	// ReplStats snapshots the master's replication pipeline counters
	// (group commits, batches shipped, semi-sync degradations).
	ProxyStats proxy.Stats
	PoolStats  pool.Stats
	ReplStats  repl.Stats

	// FinalMaster names the server acting as master when the run ended —
	// after a master-crash scenario this is the promoted slave.
	FinalMaster string

	// ChaosLog and ChaosCounters record what the injector actually did.
	ChaosLog      []chaos.Applied
	ChaosCounters chaos.Counters

	// Metrics is the end-of-run snapshot: every middleware component's
	// counters (and the injector's) flattened to "<component>.<metric>".
	Metrics map[string]float64

	// TraceJSON is the Chrome trace-event export (Trace runs only).
	TraceJSON []byte

	// KernelEvents counts the simulation-kernel events the run dispatched —
	// the denominator for the kernel-speed benchmark (BENCH_kernel.json).
	KernelEvents uint64
}

// startNTP has every instance discipline its clock with NTP against four
// time servers every second, the paper's recommended configuration.
func startNTP(env *sim.Env, c *cloud.Cloud) {
	for _, inst := range c.Instances() {
		bias := time.Duration(env.Rand().NormFloat64() * float64(1650*time.Microsecond))
		vclock.StartDaemon(env, inst.Name+"/ntp", inst.Clock, vclock.NTPConfig{
			Interval: time.Second, Bias: bias,
			JitterSigma: 600 * time.Microsecond, Servers: 4,
		})
	}
}

// Run executes one experiment point on its own simulation environment.
func Run(spec RunSpec) (RunResult, error) {
	spec.applyDefaults()
	env := sim.NewEnv(spec.Seed)

	cloudCfg := cloud.DefaultConfig()
	if !spec.Heterogeneous {
		cloudCfg.CPUCoV = 0
	}
	c := cloud.New(env, cloudCfg)

	preload := func(srv *server.DBServer) error {
		if err := cloudstone.Preload(spec.Scale)(srv); err != nil {
			return err
		}
		return heartbeat.Preload(srv)
	}

	slaveSpecs := make([]cluster.NodeSpec, spec.Slaves)
	for i := range slaveSpecs {
		slaveSpecs[i] = cluster.NodeSpec{Place: spec.Loc.SlavePlacement()}
	}
	clu, err := cluster.New(env, c, cluster.Config{
		Mode:          spec.Mode,
		Cost:          server.DefaultCostModel(),
		Master:        cluster.NodeSpec{Place: MasterPlacement},
		Slaves:        slaveSpecs,
		Preload:       preload,
		PriorityApply: spec.PriorityApply,
		NaivePlan:     spec.NaivePlan,
		Pipeline:      spec.Pipeline,
	})
	if err != nil {
		return RunResult{}, fmt.Errorf("experiment: %w", err)
	}

	startNTP(env, c)

	var tracer *obs.Tracer
	if spec.Trace {
		tracer = obs.NewTracer(env)
	}
	coreOpts := []core.Option{
		core.WithDatabase(cloudstone.DatabaseName),
		core.WithClientPlace(MasterPlacement),
		core.WithBalancer(spec.Balancer),
		core.WithConsistency(spec.Consistency),
		core.WithMaxStaleEvents(spec.MaxStaleEvents),
		core.WithPool(pool.Config{MaxActive: spec.Users + 8, MaxIdle: spec.Users + 8}),
	}
	if tracer != nil {
		coreOpts = append(coreOpts, core.WithTracer(tracer))
	}
	db := core.Open(clu, coreOpts...)

	inj := chaos.Start(env, c, spec.Chaos)

	hb := heartbeat.Start(env, clu.Master(), time.Second)

	// Lag sampler: one series per slave.
	var lagSeries []*metrics.TimeSeries
	for _, sl := range clu.Slaves() {
		lagSeries = append(lagSeries, metrics.NewTimeSeries(sl.Srv.Name))
	}
	env.Go("lag-sampler", func(p *sim.Proc) {
		for {
			for i, sl := range clu.Slaves() {
				if i < len(lagSeries) {
					lagSeries[i].Append(p.Now(), float64(sl.EventsBehindMaster()))
				}
			}
			p.Sleep(15 * time.Second)
		}
	})

	driver := cloudstone.NewDriver(db, cloudstone.Config{
		Scale:     spec.Scale,
		ReadRatio: spec.ReadRatio,
		Users:     spec.Users,
		RampUp:    spec.RampUp,
		Steady:    spec.Steady,
		RampDown:  spec.RampDown,
	})
	driver.Start(env)

	// Cumulative completed-ops sampler, same cadence as the lag sampler.
	opsSeries := metrics.NewTimeSeries("ops")
	env.Go("ops-sampler", func(p *sim.Proc) {
		for {
			opsSeries.Append(p.Now(), float64(driver.CompletedOps()))
			p.Sleep(15 * time.Second)
		}
	})

	steadyFrom, steadyTo := driver.SteadyWindow()
	// Reset CPU accounting at the start of steady state and capture
	// utilizations at its end.
	env.Schedule(steadyFrom-env.Now(), func() {
		for _, inst := range c.Instances() {
			inst.CPU.ResetStats()
		}
	})
	var masterUtil float64
	var slaveUtil []float64
	env.Schedule(steadyTo-env.Now(), func() {
		masterUtil = clu.Master().Srv.Inst.Utilization()
		for _, sl := range clu.Slaves() {
			slaveUtil = append(slaveUtil, sl.Srv.Inst.Utilization())
		}
	})

	total := spec.RampUp + spec.Steady + spec.RampDown
	env.RunUntil(env.Now() + total)
	hb.Stop()

	// Let in-flight replication land so delay samples for steady-window
	// heartbeats are complete (bounded grace, not unbounded catch-up).
	env.RunUntil(env.Now() + 2*time.Minute)

	res := RunResult{
		Spec: spec, MasterUtil: masterUtil, SlaveUtil: slaveUtil,
		LagSeries: lagSeries, OpsSeries: opsSeries,
		ProxyStats: db.Proxy().Stats(), PoolStats: db.Pool().Stats(),
		FinalMaster:   clu.Master().Srv.Name,
		ChaosLog:      inj.Log(),
		ChaosCounters: inj.Counters(),
		ReplStats:     clu.Master().Stats(),
	}
	dres := driver.Result()
	res.Throughput = dres.Throughput
	res.ReadThroughput = dres.ReadThroughput
	res.WriteThroughput = dres.WriteThroughput
	res.Errors = dres.Errors
	res.LatencyMsMean = dres.Latency.Mean
	res.WriteLatencyMsMean = dres.WriteLatency.Mean

	ids := hb.IDsInWindow(steadyFrom, steadyTo)
	if len(ids) > 0 {
		var sum float64
		var pooled []float64
		for _, sl := range clu.Slaves() {
			delays, err := heartbeat.PaddedDelays(clu.Master(), sl, ids)
			var ms float64
			if err != nil {
				// The slave applied none of the window's heartbeats: its
				// delay is unbounded; report the elapsed time since the
				// window midpoint as a lower bound.
				ms = float64((env.Now() - (steadyFrom+steadyTo)/2).Milliseconds())
				pooled = append(pooled, ms)
			} else {
				ms = metrics.TrimmedMean(delays, 0.05)
				pooled = append(pooled, delays...)
			}
			res.PerSlaveDelayMs = append(res.PerSlaveDelayMs, ms)
			sum += ms
		}
		if len(res.PerSlaveDelayMs) > 0 {
			res.AvgDelayMs = sum / float64(len(res.PerSlaveDelayMs))
		}
		res.P95DelayMs = metrics.Quantile(pooled, 0.95)
	}

	res.Metrics = db.Metrics()
	obs.Flatten(res.Metrics, "chaos.", res.ChaosCounters)
	if tracer != nil {
		tj, err := tracer.ExportJSON()
		if err != nil {
			return res, fmt.Errorf("experiment: trace export: %w", err)
		}
		res.TraceJSON = tj
	}

	env.Stop()
	env.Shutdown()
	res.KernelEvents = env.Events()
	return res, nil
}
