package experiment

import (
	"fmt"
	"strings"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/elastic"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
)

// ElasticFleetResult is one arm of the A-ELASTIC ablation: a load ramp run
// against one fleet strategy.
type ElasticFleetResult struct {
	Name   string
	Policy string // "fixed", "reactive-util", "staleness-slo"

	// Throughput is completed operations per second over the whole ramp.
	Throughput float64
	Errors     int
	// SLOViolation is how long clients were exposed to admitted replicas
	// staler than the objective.
	SLOViolation time.Duration
	// SlaveVMMinutes is the summed billing clock of every slave instance —
	// the cost side the controller trades against the SLO.
	SlaveVMMinutes float64
	// FinalSlaves / PeakSlaves are the admitted fleet size at the end of
	// the ramp and its maximum over the run.
	FinalSlaves int
	PeakSlaves  int

	// MasterBound reports the controller's saturation verdict.
	MasterBound       bool
	MasterBoundAt     time.Duration
	MasterBoundSlaves int
	Verdict           string

	// Decisions is the controller's decision log (empty for fixed fleets).
	Decisions []elastic.Decision
	// SlavesSeries samples the admitted fleet size every 15 virtual
	// seconds; ThroughputSeries samples cumulative completed operations.
	SlavesSeries     *metrics.TimeSeries
	ThroughputSeries *metrics.TimeSeries
	// Metrics is the arm's end-of-run snapshot (client latency, proxy and
	// pool counters, the controller's scaling activity).
	Metrics map[string]float64
}

// ElasticResult is the A-ELASTIC ablation output: the same 50/50 load ramp
// run against two fixed fleets and two controller policies.
type ElasticResult struct {
	// SLOTargetMs is the staleness objective all arms are scored against.
	SLOTargetMs float64
	// Stages is the user ramp every arm runs.
	Stages []cloudstone.Stage
	Fleets []ElasticFleetResult
}

// elasticArm parameterizes one run of the ablation.
type elasticArm struct {
	name          string
	initialSlaves int
	policy        elastic.Policy // nil = fixed fleet (observe-only)
}

// sloArm is the staleness-SLO controller starting from one slave.
var sloArm = elasticArm{name: "staleness-slo", initialSlaves: 1, policy: elastic.StalenessSLO{}}

// elasticStages is the stepped 50→250-user ramp every arm runs.
func elasticStages(stageDur time.Duration) []cloudstone.Stage {
	var stages []cloudstone.Stage
	for _, users := range []int{50, 100, 150, 200, 250} {
		stages = append(stages, cloudstone.Stage{Users: users, Dur: stageDur})
	}
	return stages
}

// AblationElastic runs the elasticity ablation: a stepped 50→250-user ramp
// at 50/50 read/write against (a) a fixed 1-slave fleet, (b) a fixed
// 4-slave fleet, (c) the reactive CPU-utilization controller and (d) the
// staleness-SLO controller. Every arm is scored on throughput, time in SLO
// violation and slave VM-minutes; the controllers additionally report their
// decision logs and the master-bound point they detect.
func AblationElastic(opts SweepOpts) (ElasticResult, error) {
	stageDur := 6 * time.Minute
	if opts.Short {
		stageDur = 3 * time.Minute
	}
	stages := elasticStages(stageDur)

	arms := []elasticArm{
		{name: "fixed-1", initialSlaves: 1},
		{name: "fixed-4", initialSlaves: 4},
		{name: "reactive-util", initialSlaves: 1, policy: elastic.ReactiveUtilization{}},
		sloArm,
	}

	out := ElasticResult{SLOTargetMs: elastic.SLOTargetMs, Stages: stages}
	for i, arm := range arms {
		fr, err := runElasticArm(opts.Seed+int64(i), arm, stages)
		if err != nil {
			return out, err
		}
		out.Fleets = append(out.Fleets, fr)
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf(
				"elastic %-14s tp=%6.2f ops/s  slo-viol=%8s  vm=%6.1f min  slaves end=%d peak=%d  %s",
				fr.Name, fr.Throughput, fr.SLOViolation.Truncate(time.Second),
				fr.SlaveVMMinutes, fr.FinalSlaves, fr.PeakSlaves, fr.Verdict))
		}
	}
	return out, nil
}

// elasticSLOArm is A-ELASTIC's determinism arm: the staleness-SLO controller
// over the ramp (2-minute stages under Short), flattened the way the ablation
// writes it.
func elasticSLOArm(o SweepOpts) func() (any, error) {
	stageDur := 6 * time.Minute
	if o.Short {
		stageDur = 2 * time.Minute
	}
	stages := elasticStages(stageDur)
	return func() (any, error) {
		fr, err := runElasticArm(o.Seed, sloArm, stages)
		if err != nil {
			return nil, err
		}
		return ElasticJSON(ElasticResult{SLOTargetMs: elastic.SLOTargetMs, Stages: stages, Fleets: []ElasticFleetResult{fr}}), nil
	}
}

// runElasticArm executes one arm on its own virtual timeline.
func runElasticArm(seed int64, arm elasticArm, stages []cloudstone.Stage) (ElasticFleetResult, error) {
	env := sim.NewEnv(seed)
	cloudCfg := cloud.DefaultConfig()
	cloudCfg.CPUCoV = 0 // homogeneous fleet: curves reflect control, not luck
	c := cloud.New(env, cloudCfg)

	preload := func(srv *server.DBServer) error {
		if err := cloudstone.Preload(300)(srv); err != nil {
			return err
		}
		return heartbeat.Preload(srv)
	}
	slaveSpecs := make([]cluster.NodeSpec, arm.initialSlaves)
	for i := range slaveSpecs {
		slaveSpecs[i] = cluster.NodeSpec{Place: SameZone.SlavePlacement()}
	}
	clu, err := cluster.New(env, c, cluster.Config{
		Cost:    server.DefaultCostModel(),
		Master:  cluster.NodeSpec{Place: MasterPlacement},
		Slaves:  slaveSpecs,
		Preload: preload,
	})
	if err != nil {
		return ElasticFleetResult{}, fmt.Errorf("elastic arm %s: %w", arm.name, err)
	}

	maxUsers := 0
	for _, s := range stages {
		if s.Users > maxUsers {
			maxUsers = s.Users
		}
	}
	db := core.Open(clu,
		core.WithDatabase(cloudstone.DatabaseName),
		core.WithClientPlace(MasterPlacement),
		core.WithPool(pool.Config{MaxActive: maxUsers + 8, MaxIdle: maxUsers + 8}))
	hb := heartbeat.Start(env, clu.Master(), time.Second)

	driver := cloudstone.NewDriver(db, cloudstone.Config{
		Scale:     300,
		ReadRatio: 0.5,
		Stages:    stages,
	})

	ctrl, err := elastic.Start(env, db, func() float64 { return float64(driver.CompletedOps()) }, elastic.Config{
		Policy: arm.policy,
		Spec:   cluster.NodeSpec{Place: SameZone.SlavePlacement()},
	})
	if err != nil {
		return ElasticFleetResult{}, fmt.Errorf("elastic arm %s: %w", arm.name, err)
	}

	admitted := func() int {
		n := 0
		for _, sl := range clu.Slaves() {
			if sl.Srv.Up() && !db.Proxy().Quarantined(sl) {
				n++
			}
		}
		return n
	}
	slavesSeries := metrics.NewTimeSeries("admitted-slaves")
	opsSeries := metrics.NewTimeSeries("ops")
	env.Go("fleet-sampler", func(p *sim.Proc) {
		for {
			slavesSeries.Append(p.Now(), float64(admitted()))
			opsSeries.Append(p.Now(), float64(driver.CompletedOps()))
			p.Sleep(15 * time.Second)
		}
	})

	driver.Start(env)
	var total time.Duration
	for _, s := range stages {
		total += s.Dur
	}
	env.RunUntil(env.Now() + total)

	fr := ElasticFleetResult{
		Name:             arm.name,
		Policy:           "fixed",
		SLOViolation:     ctrl.SLOViolation(),
		FinalSlaves:      admitted(),
		Decisions:        ctrl.Decisions(),
		SlavesSeries:     slavesSeries,
		ThroughputSeries: opsSeries,
		Verdict:          ctrl.Verdict(),
	}
	if arm.policy != nil {
		fr.Policy = arm.policy.Name()
	} else {
		fr.Verdict = "fixed fleet"
	}
	var boundAt sim.Time
	if fr.MasterBound, boundAt, fr.MasterBoundSlaves = ctrl.MasterBound(); fr.MasterBound {
		fr.MasterBoundAt = time.Duration(boundAt)
	}
	for _, pt := range slavesSeries.Points() {
		if int(pt.V) > fr.PeakSlaves {
			fr.PeakSlaves = int(pt.V)
		}
	}
	for _, inst := range c.Instances() {
		if inst.Name != "master" {
			fr.SlaveVMMinutes += inst.UpTime().Minutes()
		}
	}
	dres := driver.Result()
	fr.Throughput = dres.Throughput
	fr.Errors = dres.Errors
	fr.Metrics = db.Metrics()
	obs.Flatten(fr.Metrics, "elastic.", ctrl.Counters())

	ctrl.Stop()
	hb.Stop()
	env.Stop()
	env.Shutdown()
	return fr, nil
}

// RenderElastic formats A-ELASTIC.
func RenderElastic(r ElasticResult) string {
	var b strings.Builder
	b.WriteString("A-ELASTIC — SLO-driven autoscaling on a stepped load ramp (50/50 read/write, same zone)\n")
	b.WriteString("ramp: ")
	for i, s := range r.Stages {
		if i > 0 {
			b.WriteString(" → ")
		}
		fmt.Fprintf(&b, "%d users/%v", s.Users, s.Dur)
	}
	fmt.Fprintf(&b, "\nstaleness SLO: p95 ≤ %.0f ms on every admitted replica\n\n", r.SLOTargetMs)

	fmt.Fprintf(&b, "%-15s %-14s %11s %12s %10s %11s %s\n",
		"fleet", "policy", "tp (ops/s)", "slo viol", "vm-min", "slaves", "verdict")
	for _, f := range r.Fleets {
		fmt.Fprintf(&b, "%-15s %-14s %11.2f %12s %10.1f %5d (pk %d) %s\n",
			f.Name, f.Policy, f.Throughput, f.SLOViolation.Truncate(time.Second),
			f.SlaveVMMinutes, f.FinalSlaves, f.PeakSlaves, f.Verdict)
	}

	for _, f := range r.Fleets {
		if len(f.Decisions) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s decision log:\n", f.Name)
		for _, d := range f.Decisions {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}

	b.WriteString("\nthe fixed single slave drowns once the ramp passes its saturation point;\n")
	b.WriteString("four fixed slaves hold the SLO but bill for capacity the early ramp never\n")
	b.WriteString("uses. the controllers grow the fleet as load arrives, warm each new replica\n")
	b.WriteString("behind the proxy before it serves a read, and stop at the paper's §V wall:\n")
	b.WriteString("once the write master's CPU is saturated, another read replica buys no\n")
	b.WriteString("throughput — the controller detects it, rolls the useless replica back and\n")
	b.WriteString("reports the tier master-bound instead of scaling to the fleet cap.\n")
	return b.String()
}
