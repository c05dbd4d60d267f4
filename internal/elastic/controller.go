package elastic

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/sim"
)

// What the controller runs on: the values no two callers outside tests and
// examples would set differently, so constants and not Config fields
// (DESIGN.md §15).
const (
	// SLOTargetMs is the staleness objective: the windowed p95 staleness of
	// the worst admitted replica must stay below it. StalenessSLO steers on
	// it, SLOViolation integrates against it and A-ELASTIC scores every arm
	// by it, whichever policy is steering.
	SLOTargetMs = 500.0

	// interval is the time between monitor ticks.
	interval = 5 * time.Second
	// window is the rolling-window width of every monitored signal.
	window = 60 * time.Second
	// cooldown is the minimum time between scaling actions, restarted when a
	// provisioned replica is admitted. It gives the tier time to settle so one
	// overload burst cannot trigger a slave stampede.
	cooldown = 90 * time.Second
	// settleAfterScale is how long after admitting a new replica the
	// controller waits before judging whether the scale-out improved
	// throughput.
	settleAfterScale = window
	// minSlaves and maxSlaves bound the fleet.
	minSlaves, maxSlaves = 1, 8
	// warmupMaxLagEvents: a freshly provisioned replica stays quarantined —
	// the proxy serves no reads from it — until it is at most this many binlog
	// events behind the master.
	warmupMaxLagEvents = 5
	// masterHighWater: when the master's windowed CPU utilization is at or
	// above this, scale-out is refused and the tier declared master-bound —
	// more read replicas cannot help a tier whose write master has no
	// headroom.
	masterHighWater = 0.90
	// minTpGainFrac: a scale-out must improve windowed throughput by at least
	// this fraction (judged settleAfterScale after admission) while the master
	// is near its high water, or the replica is rolled back and the tier
	// declared master-bound.
	minTpGainFrac = 0.05
)

// Config is what differs between the controller's callers.
type Config struct {
	// Policy decides scaling. nil runs the controller in observe-only
	// mode: it monitors, traces and accounts, but never scales — how the
	// fixed-fleet baselines are measured with identical instrumentation.
	Policy Policy
	// Spec places newly provisioned replicas.
	Spec cluster.NodeSpec
}

// Decision is one entry of the controller's decision log.
type Decision struct {
	T sim.Time
	// Action is one of "scale-out", "admit", "scale-in", "drained",
	// "master-bound", "rollback", "provision-failed".
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
	clu *cluster.Cluster
	px  *proxy.Proxy
	cfg Config
	mon *monitor

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

	judge *judgeState
}

// judgeState tracks a pending did-the-scale-out-help verdict.
type judgeState struct {
	preTp float64
	at    sim.Time
	slave *repl.Slave
}

// Start wires a controller onto the one-cell tier behind db and launches its
// tick loop. The cluster, the proxy and the pool's wait counter are the
// handle's; ops is the one signal it cannot know — the cumulative number of
// client operations the load driver has completed (nil reads as zero
// throughput). A handle that fronts several cells is refused: the controller
// steers one master's replica fleet.
func Start(env *sim.Env, db *core.DB, ops func() float64, cfg Config) (*Controller, error) {
	clu, px := db.Cluster(), db.Proxy()
	if clu == nil {
		return nil, errors.New("elastic: the handle fronts several cells; the controller steers one")
	}
	c := &Controller{
		env: env,
		clu: clu,
		px:  px,
		cfg: cfg,
		mon: newMonitor(env, clu, px, ops, func() float64 { return float64(db.Pool().Stats().Waits) }),
	}
	env.Go("elastic", func(p *sim.Proc) {
		for !c.stopped {
			c.tick(p)
			p.Sleep(interval)
		}
	})
	return c, nil
}

// Stop halts the tick loop after the current tick.
func (c *Controller) Stop() { c.stopped = true }

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
	IsMasterBound   int `metric:"is_master_bound"`
}

// Counters counts the decisions taken so far. An action recorded without a
// field here (see Decision.Action) is a nil dereference, not a silent zero.
func (c *Controller) Counters() Counters {
	var n Counters
	byAction := map[string]*int{
		"scale-out": &n.ScaleOut, "admit": &n.Admit, "scale-in": &n.ScaleIn,
		"drained": &n.Drained, "master-bound": &n.MasterBound, "rollback": &n.Rollback,
		"provision-failed": &n.ProvisionFailed,
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
// staleness exceeded SLOTargetMs over the traced run — the "how long were
// clients exposed to data older than the objective" figure. A tick's state
// is held until the next tick (left-continuous step function).
func (c *Controller) SLOViolation() time.Duration {
	var v time.Duration
	for i := 1; i < len(c.trace); i++ {
		if c.trace[i-1].WorstAdmittedStalenessMs > SLOTargetMs {
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
	s := c.mon.sample()
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
		case sl.EventsBehindMaster() <= warmupMaxLagEvents:
			c.px.Admit(sl)
			c.provisioning = false
			c.lastScale = p.Now()
			c.record(p, "admit", sl.Srv.Name,
				fmt.Sprintf("caught up to %d event(s) behind; serving reads", sl.EventsBehindMaster()),
				s.AdmittedCount+1)
			if c.judge == nil {
				c.judge = &judgeState{
					preTp: c.preScaleTp,
					at:    p.Now() + settleAfterScale,
					slave: sl,
				}
			}
		default:
			keep = append(keep, sl)
		}
	}
	c.warming = keep
}

// judgeImprovement checks, settleAfterScale after an admission, whether the
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
	if gain >= minTpGainFrac || s.MasterUtil < 0.95*masterHighWater {
		return
	}
	c.declareMasterBound(p, s.AdmittedCount-1,
		fmt.Sprintf("throughput %+.1f%% after adding %s with master CPU at %.0f%% — scale-out no longer helps",
			gain*100, j.slave.Srv.Name, s.MasterUtil*100))
	// Roll back the replica that bought nothing.
	if slices.Contains(c.clu.Slaves(), j.slave) && j.slave.Srv.Up() {
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
}

func (c *Controller) tryScaleOut(p *sim.Proc, s Sample, reason string) {
	now := p.Now()
	switch {
	case c.masterBound, c.provisioning, len(c.warming) > 0:
		return
	case now-c.lastScale < cooldown:
		return
	case len(c.clu.Slaves()) >= maxSlaves:
		return
	}
	if s.MasterUtil >= masterHighWater {
		// Growing the read fleet cannot relieve a saturated write master.
		c.declareMasterBound(p, s.AdmittedCount,
			fmt.Sprintf("master CPU %.0f%% ≥ %.0f%% high water; refusing scale-out (%s)",
				s.MasterUtil*100, masterHighWater*100, reason))
		return
	}
	c.provisioning = true
	c.lastScale = now
	c.preScaleTp = s.Throughput
	c.record(p, "scale-out", "", reason, s.AdmittedCount)
	c.env.Go("elastic/provision", func(pp *sim.Proc) {
		sl, err := c.clu.ProvisionSlave(pp, c.cfg.Spec)
		if err != nil {
			c.provisioning = false
			c.record(pp, "provision-failed", "", err.Error(), 0)
			return
		}
		// ProvisionSlave returns without yielding after attach, so the
		// quarantine lands before any read can route to the new node.
		c.px.Quarantine(sl)
		c.warming = append(c.warming, sl)
	})
}

func (c *Controller) tryScaleIn(p *sim.Proc, s Sample, reason string) {
	now := p.Now()
	switch {
	case c.provisioning, len(c.warming) > 0:
		return
	case now-c.lastScale < cooldown:
		return
	case s.AdmittedCount <= minSlaves:
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
		abandoned := c.px.Drain(pp, sl, proxy.DrainTimeout)
		c.clu.RemoveSlave(sl)
		c.px.Forget(sl)
		c.record(pp, "drained", sl.Srv.Name,
			fmt.Sprintf("instance terminated (%d read(s) abandoned)", abandoned), 0)
	})
}

func (c *Controller) mostLaggedAdmitted() *repl.Slave {
	var worst *repl.Slave
	for _, sl := range c.clu.Slaves() {
		if !sl.Srv.Up() || c.px.Quarantined(sl) {
			continue
		}
		if worst == nil || sl.EventsBehindMaster() > worst.EventsBehindMaster() {
			worst = sl
		}
	}
	return worst
}
