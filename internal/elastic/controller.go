package elastic

import (
	"fmt"
	"time"

	"cloudrepl/internal/cluster"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/sim"
)

// Config tunes the controller.
type Config struct {
	// Interval between monitor ticks (default 5 s).
	Interval time.Duration
	// Window is the rolling-window width for every monitored signal
	// (default 60 s).
	Window time.Duration
	// Cooldown is the minimum time between scaling actions, restarted when
	// a provisioned replica is admitted (default 90 s). It gives the tier
	// time to settle so one overload burst cannot trigger a slave stampede.
	Cooldown time.Duration
	// SettleAfterScale is how long after admitting a new replica the
	// controller waits before judging whether the scale-out actually
	// improved throughput (default = Window).
	SettleAfterScale time.Duration
	// MinSlaves/MaxSlaves bound the fleet (defaults 1 and 8).
	MinSlaves, MaxSlaves int
	// WarmupMaxLagEvents: a freshly provisioned replica stays quarantined
	// until it is at most this many binlog events behind the master
	// (default 5). Until then the proxy serves no reads from it.
	WarmupMaxLagEvents uint64
	// MasterHighWater: when the master's windowed CPU utilization is at or
	// above this, scale-out is refused and the controller declares the tier
	// master-bound (default 0.90) — more read replicas cannot help a tier
	// whose write master has no headroom.
	MasterHighWater float64
	// MinTpGainFrac: a scale-out must improve windowed throughput by at
	// least this fraction (judged SettleAfterScale after admission) while
	// the master is near its high water, or the replica is rolled back and
	// the tier declared master-bound (default 0.05).
	MinTpGainFrac float64
	// DrainTimeout bounds the in-flight-read drain during scale-in
	// (default 30 s).
	DrainTimeout time.Duration
	// Spec places newly provisioned replicas.
	Spec cluster.NodeSpec
	// Policy decides scaling. nil runs the controller in observe-only
	// mode: it monitors, traces and accounts, but never scales — how the
	// fixed-fleet baselines are measured with identical instrumentation.
	Policy Policy
	// ScaleCell, when set, is the escape hatch past the master ceiling:
	// the controller invokes it (in its own process) each time it declares
	// the tier master-bound. Read replicas cannot relieve a saturated
	// write master, but splitting the tier into another shard cell can —
	// wire this to core.DB.SplitShard. On success the master-bound verdict
	// is cleared so replica scaling resumes in the new, smaller cell; on
	// failure the verdict stands.
	ScaleCell func(p *sim.Proc) error
	// SLOTargetMs is the staleness objective used for violation accounting
	// in the trace (default 500 ms). It is an accounting knob, independent
	// of whichever policy is steering.
	SLOTargetMs float64
}

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 60 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 90 * time.Second
	}
	if c.SettleAfterScale <= 0 {
		c.SettleAfterScale = c.Window
	}
	if c.MinSlaves <= 0 {
		c.MinSlaves = 1
	}
	if c.MaxSlaves <= 0 {
		c.MaxSlaves = 8
	}
	if c.WarmupMaxLagEvents == 0 {
		c.WarmupMaxLagEvents = 5
	}
	if c.MasterHighWater <= 0 {
		c.MasterHighWater = 0.90
	}
	if c.MinTpGainFrac <= 0 {
		c.MinTpGainFrac = 0.05
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.SLOTargetMs <= 0 {
		c.SLOTargetMs = 500
	}
}

// Decision is one entry of the controller's decision log.
type Decision struct {
	T sim.Time
	// Action is one of "scale-out", "admit", "scale-in", "drained",
	// "master-bound", "rollback", "provision-failed", "cell-added",
	// "cell-scale-failed".
	Action string
	// Slave names the replica involved, when one is.
	Slave string
	// Slaves is the admitted fleet size when the decision was taken.
	Slaves int
	Reason string
}

// String renders the decision as one log line.
func (d Decision) String() string {
	s := fmt.Sprintf("[%8s] %-13s", d.T.Truncate(time.Millisecond), d.Action)
	if d.Slave != "" {
		s += " " + d.Slave
	}
	if d.Reason != "" {
		s += "  — " + d.Reason
	}
	return s
}

// Controller is the monitor → policy → actuator loop, running as one
// simulation process.
type Controller struct {
	env *sim.Env
	src Sources
	cfg Config
	mon *Monitor

	trace     []Sample
	decisions []Decision

	stopped      bool
	provisioning bool          // a replica is being snapshotted/warmed
	warming      []*repl.Slave // provisioned, quarantined, catching up
	lastScale    sim.Time
	// preScaleTp is the windowed throughput right before the last
	// scale-out — the baseline the improvement judgment compares against.
	preScaleTp float64

	masterBound       bool
	masterBoundAt     sim.Time
	masterBoundSlaves int
	cellScaling       bool // a ScaleCell (shard split) is in flight

	judge *judgeState
}

// judgeState tracks a pending did-the-scale-out-help verdict.
type judgeState struct {
	preTp float64
	at    sim.Time
	slave *repl.Slave
}

// Start wires a controller onto the tier and launches its tick loop.
func Start(env *sim.Env, cfg Config, src Sources) *Controller {
	cfg.defaults()
	c := &Controller{
		env: env,
		src: src,
		cfg: cfg,
		mon: NewMonitor(env, src, cfg.Window),
	}
	env.Go("elastic", func(p *sim.Proc) {
		for !c.stopped {
			c.tick(p)
			p.Sleep(c.cfg.Interval)
		}
	})
	return c
}

// Stop halts the tick loop after the current tick.
func (c *Controller) Stop() { c.stopped = true }

// Trace returns every sample the monitor took, in order.
func (c *Controller) Trace() []Sample { return c.trace }

// Decisions returns the decision log.
func (c *Controller) Decisions() []Decision { return c.decisions }

// Counters tallies the decision log by action, plus the master-bound verdict
// as a 0/1 flag. The metric tag is the name obs.Flatten publishes a field
// under (after "elastic."); every action of the vocabulary has a field, so
// the published names do not depend on which decisions happened to fire.
type Counters struct {
	ScaleOut        int `metric:"scale_out"`
	Admit           int `metric:"admit"`
	ScaleIn         int `metric:"scale_in"`
	Drained         int `metric:"drained"`
	MasterBound     int `metric:"master_bound"`
	Rollback        int `metric:"rollback"`
	ProvisionFailed int `metric:"provision_failed"`
	CellAdded       int `metric:"cell_added"`
	CellScaleFailed int `metric:"cell_scale_failed"`
	IsMasterBound   int `metric:"is_master_bound"`
}

// Counters counts the decisions taken so far. An action recorded without a
// field here (see Decision.Action) is a nil dereference, not a silent zero.
func (c *Controller) Counters() Counters {
	var n Counters
	byAction := map[string]*int{
		"scale-out": &n.ScaleOut, "admit": &n.Admit, "scale-in": &n.ScaleIn,
		"drained": &n.Drained, "master-bound": &n.MasterBound, "rollback": &n.Rollback,
		"provision-failed": &n.ProvisionFailed, "cell-added": &n.CellAdded,
		"cell-scale-failed": &n.CellScaleFailed,
	}
	for _, d := range c.decisions {
		*byAction[d.Action]++
	}
	if c.masterBound {
		n.IsMasterBound = 1
	}
	return n
}

// MasterBound reports whether the controller has declared the tier
// master-bound, and when and at what admitted fleet size it did.
func (c *Controller) MasterBound() (bool, sim.Time, int) {
	return c.masterBound, c.masterBoundAt, c.masterBoundSlaves
}

// Verdict summarizes the controller's conclusion about the tier.
func (c *Controller) Verdict() string {
	if c.masterBound {
		return fmt.Sprintf("master-bound at %d slave(s) since %s",
			c.masterBoundSlaves, c.masterBoundAt.Truncate(time.Second))
	}
	return "scaling"
}

// SLOViolation integrates the time the admitted fleet's worst current
// staleness exceeded targetMs over the traced run — the "how long were
// clients exposed to data older than the objective" figure. A tick's state
// is held until the next tick (left-continuous step function).
func (c *Controller) SLOViolation(targetMs float64) time.Duration {
	var v time.Duration
	for i := 1; i < len(c.trace); i++ {
		if c.trace[i-1].WorstAdmittedStalenessMs > targetMs {
			v += time.Duration(c.trace[i].T - c.trace[i-1].T)
		}
	}
	return v
}

func (c *Controller) record(p *sim.Proc, action, slave, reason string, admitted int) {
	c.decisions = append(c.decisions, Decision{
		T: p.Now(), Action: action, Slave: slave, Slaves: admitted, Reason: reason,
	})
}

func (c *Controller) tick(p *sim.Proc) {
	s := c.mon.Sample()
	c.trace = append(c.trace, s)

	c.admitWarmed(p, s)
	c.judgeImprovement(p, s)

	if c.cfg.Policy == nil {
		return
	}
	act, reason := c.cfg.Policy.Decide(s)
	switch act {
	case ScaleOut:
		c.tryScaleOut(p, s, reason)
	case ScaleIn:
		c.tryScaleIn(p, s, reason)
	}
}

// admitWarmed admits quarantined replicas that have caught up to within the
// warm-up lag threshold, and drops any that died while warming.
func (c *Controller) admitWarmed(p *sim.Proc, s Sample) {
	keep := c.warming[:0]
	for _, sl := range c.warming {
		switch {
		case !sl.Srv.Up():
			c.provisioning = false
			c.record(p, "provision-failed", sl.Srv.Name, "instance died during warm-up", s.AdmittedCount)
		case sl.EventsBehindMaster() <= c.cfg.WarmupMaxLagEvents:
			c.src.Proxy.Admit(sl)
			c.provisioning = false
			c.lastScale = p.Now()
			c.record(p, "admit", sl.Srv.Name,
				fmt.Sprintf("caught up to %d event(s) behind; serving reads", sl.EventsBehindMaster()),
				s.AdmittedCount+1)
			if c.judge == nil {
				c.judge = &judgeState{
					preTp: c.preScaleTp,
					at:    p.Now() + c.cfg.SettleAfterScale,
					slave: sl,
				}
			}
		default:
			keep = append(keep, sl)
		}
	}
	c.warming = keep
}

// judgeImprovement checks, SettleAfterScale after an admission, whether the
// scale-out moved throughput. If it did not and the master has no CPU
// headroom, the added replica was pure cost: it is rolled back and the tier
// declared master-bound.
func (c *Controller) judgeImprovement(p *sim.Proc, s Sample) {
	if c.judge == nil || p.Now() < c.judge.at {
		return
	}
	j := c.judge
	c.judge = nil
	if c.masterBound {
		return
	}
	gain := 0.0
	if j.preTp > 0 {
		gain = (s.Throughput - j.preTp) / j.preTp
	}
	if gain >= c.cfg.MinTpGainFrac || s.MasterUtil < 0.95*c.cfg.MasterHighWater {
		return
	}
	c.declareMasterBound(p, s.AdmittedCount-1,
		fmt.Sprintf("throughput %+.1f%% after adding %s with master CPU at %.0f%% — scale-out no longer helps",
			gain*100, j.slave.Srv.Name, s.MasterUtil*100))
	// Roll back the replica that bought nothing.
	if c.attached(j.slave) && j.slave.Srv.Up() {
		c.record(p, "rollback", j.slave.Srv.Name, "removing ineffective replica", s.AdmittedCount)
		c.removeGraceful(p, j.slave)
	}
}

func (c *Controller) declareMasterBound(p *sim.Proc, slaves int, reason string) {
	if c.masterBound {
		return
	}
	c.masterBound = true
	c.masterBoundAt = p.Now()
	c.masterBoundSlaves = slaves
	c.record(p, "master-bound", "", reason, slaves)
	c.scaleCell(slaves)
}

// scaleCell launches the configured past-the-master escape hatch (a shard
// split) once per master-bound declaration. Success clears the verdict —
// the cell the controller steers now owns half its former keyspace, so the
// master has headroom again and replica scaling resumes; failure leaves
// the verdict standing so the run's conclusion stays honest.
func (c *Controller) scaleCell(slaves int) {
	if c.cfg.ScaleCell == nil || c.cellScaling {
		return
	}
	c.cellScaling = true
	c.env.Go("elastic/scale-cell", func(pp *sim.Proc) {
		err := c.cfg.ScaleCell(pp)
		c.cellScaling = false
		if err != nil {
			c.record(pp, "cell-scale-failed", "", err.Error(), slaves)
			return
		}
		c.masterBound = false
		c.lastScale = pp.Now()
		c.record(pp, "cell-added", "", "tier split into a new shard cell; master ceiling lifted", slaves)
	})
}

func (c *Controller) tryScaleOut(p *sim.Proc, s Sample, reason string) {
	now := p.Now()
	switch {
	case c.masterBound, c.provisioning, len(c.warming) > 0:
		return
	case now-c.lastScale < c.cfg.Cooldown:
		return
	case len(c.src.Cluster.Slaves()) >= c.cfg.MaxSlaves:
		return
	}
	if s.MasterUtil >= c.cfg.MasterHighWater {
		// Growing the read fleet cannot relieve a saturated write master.
		c.declareMasterBound(p, s.AdmittedCount,
			fmt.Sprintf("master CPU %.0f%% ≥ %.0f%% high water; refusing scale-out (%s)",
				s.MasterUtil*100, c.cfg.MasterHighWater*100, reason))
		return
	}
	c.provisioning = true
	c.lastScale = now
	c.preScaleTp = s.Throughput
	c.record(p, "scale-out", "", reason, s.AdmittedCount)
	c.env.Go("elastic/provision", func(pp *sim.Proc) {
		sl, err := c.src.Cluster.ProvisionSlave(pp, c.cfg.Spec)
		if err != nil {
			c.provisioning = false
			c.record(pp, "provision-failed", "", err.Error(), 0)
			return
		}
		// ProvisionSlave returns without yielding after attach, so the
		// quarantine lands before any read can route to the new node.
		c.src.Proxy.Quarantine(sl)
		c.warming = append(c.warming, sl)
	})
}

func (c *Controller) tryScaleIn(p *sim.Proc, s Sample, reason string) {
	now := p.Now()
	switch {
	case c.provisioning, len(c.warming) > 0:
		return
	case now-c.lastScale < c.cfg.Cooldown:
		return
	case s.AdmittedCount <= c.cfg.MinSlaves:
		return
	}
	victim := c.mostLaggedAdmitted()
	if victim == nil {
		return
	}
	c.lastScale = now
	c.record(p, "scale-in", victim.Srv.Name, reason, s.AdmittedCount)
	c.removeGraceful(p, victim)
}

// removeGraceful spawns the quarantine → drain → terminate sequence so the
// tick loop keeps running while in-flight reads drain.
func (c *Controller) removeGraceful(p *sim.Proc, sl *repl.Slave) {
	c.env.Go("elastic/drain", func(pp *sim.Proc) {
		abandoned := c.src.Proxy.Drain(pp, sl, c.cfg.DrainTimeout)
		c.src.Cluster.RemoveSlave(sl)
		c.src.Proxy.Forget(sl)
		c.record(pp, "drained", sl.Srv.Name,
			fmt.Sprintf("instance terminated (%d read(s) abandoned)", abandoned), 0)
	})
}

func (c *Controller) mostLaggedAdmitted() *repl.Slave {
	var worst *repl.Slave
	for _, sl := range c.src.Cluster.Slaves() {
		if !sl.Srv.Up() || c.src.Proxy.Quarantined(sl) {
			continue
		}
		if worst == nil || sl.EventsBehindMaster() > worst.EventsBehindMaster() {
			worst = sl
		}
	}
	return worst
}

func (c *Controller) attached(sl *repl.Slave) bool {
	for _, s := range c.src.Cluster.Slaves() {
		if s == sl {
			return true
		}
	}
	return false
}
