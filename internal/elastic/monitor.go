// Package elastic closes the control loop the paper's elasticity experiments
// run by hand: it watches the replicated database tier (CPU utilization,
// throughput, pool queueing, per-slave replication staleness), asks a policy
// whether the slave fleet should grow or shrink, and actuates the decision
// through the cluster (snapshot provisioning) and the proxy (warm-up
// quarantine, graceful drain). Its distinguishing feature is master-bound
// detection: §V of the paper shows that with a 50/50 read/write mix the
// master saturates at ~3 slaves, after which adding replicas buys nothing —
// the controller recognises that point, rolls back the ineffective replica,
// and surfaces a MasterBound verdict instead of flapping against the ceiling.
package elastic

import (
	"slices"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/sim"
)

// Sample is one tick's view of the whole tier.
type Sample struct {
	T sim.Time
	// MasterUtil is the master's CPU utilization over the window.
	MasterUtil float64
	// Throughput is completed client operations per second over the window.
	Throughput float64
	// PoolWaitRate is pool-borrow waits per second over the window.
	PoolWaitRate float64

	// AdmittedCount is the number of replicas serving reads.
	AdmittedCount int
	// MeanAdmittedUtil averages Util over admitted replicas.
	MeanAdmittedUtil float64
	// WorstAdmittedStalenessMs is the worst current staleness across
	// admitted replicas — what a client read can actually observe.
	WorstAdmittedStalenessMs float64
	// WorstAdmittedP95Ms is the worst windowed p95 staleness across
	// admitted replicas — the signal the SLO policy steers on.
	WorstAdmittedP95Ms float64
}

// monitor samples the tier into rolling windows. It is driven by the
// controller's tick loop (single-threaded scheduler, no locking needed).
type monitor struct {
	env *sim.Env
	clu *cluster.Cluster
	px  *proxy.Proxy
	// ops and poolWaits are cumulative counters sampled each tick: completed
	// client operations (nil reads as zero) and pool borrows that had to
	// queue — the application-side symptom of a saturated backend.
	ops, poolWaits func() float64

	tput  *metrics.WindowedRate
	waits *metrics.WindowedRate
	busy  map[*cloud.Instance]*metrics.WindowedRate
	stale map[*repl.Slave]*metrics.RollingWindow
}

func newMonitor(env *sim.Env, clu *cluster.Cluster, px *proxy.Proxy, ops, poolWaits func() float64) *monitor {
	return &monitor{
		env:       env,
		clu:       clu,
		px:        px,
		ops:       ops,
		poolWaits: poolWaits,
		tput:      metrics.NewWindowedRate(window),
		waits:     metrics.NewWindowedRate(window),
		busy:      make(map[*cloud.Instance]*metrics.WindowedRate),
		stale:     make(map[*repl.Slave]*metrics.RollingWindow),
	}
}

// nodeUtil observes the instance's cumulative busy-seconds counter and
// returns its windowed CPU utilization (fraction of capacity). BusySeconds
// resets with the resource stats; WindowedRate's counter-reset guard makes
// that a transient zero rather than a negative rate.
func (m *monitor) nodeUtil(now sim.Time, inst *cloud.Instance) float64 {
	w := m.busy[inst]
	if w == nil {
		w = metrics.NewWindowedRate(window)
		m.busy[inst] = w
	}
	w.Observe(now, inst.CPU.BusySeconds())
	return w.Rate() / float64(inst.CPU.Cap())
}

// sample reads every signal once and folds it into the rolling windows.
func (m *monitor) sample() Sample {
	now := m.env.Now()
	s := Sample{T: now}

	if m.ops != nil {
		m.tput.Observe(now, m.ops())
		s.Throughput = m.tput.Rate()
	}
	m.waits.Observe(now, m.poolWaits())
	s.PoolWaitRate = m.waits.Rate()

	master := m.clu.Master()
	s.MasterUtil = m.nodeUtil(now, master.Srv.Inst)

	slaves := master.Slaves()
	var utilSum float64
	for _, sl := range slaves {
		rw := m.stale[sl]
		if rw == nil {
			rw = metrics.NewRollingWindow(window)
			m.stale[sl] = rw
		}
		staleMs := float64(sl.Staleness(now)) / float64(time.Millisecond)
		rw.Observe(now, staleMs)
		util := m.nodeUtil(now, sl.Srv.Inst)
		if !sl.Srv.Up() || m.px.Quarantined(sl) {
			continue // attached, not serving reads
		}
		s.AdmittedCount++
		utilSum += util
		s.WorstAdmittedStalenessMs = max(s.WorstAdmittedStalenessMs, staleMs)
		s.WorstAdmittedP95Ms = max(s.WorstAdmittedP95Ms, rw.Quantile(0.95))
	}
	if s.AdmittedCount > 0 {
		s.MeanAdmittedUtil = utilSum / float64(s.AdmittedCount)
	}
	m.prune(slaves)
	return s
}

// prune drops window state for replicas no longer attached, so state does
// not accumulate across scale-out/scale-in cycles. (Map iteration order is
// irrelevant here: it only deletes.)
func (m *monitor) prune(attached []*repl.Slave) {
	if len(m.stale) == len(attached) {
		return
	}
	for sl := range m.stale {
		if !slices.Contains(attached, sl) {
			delete(m.stale, sl)
			delete(m.busy, sl.Srv.Inst)
		}
	}
}
