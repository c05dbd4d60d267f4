// Package cluster assembles an application-managed replicated database
// tier: a master and N slave DBServers on cloud instances, wired with
// statement-based replication, plus elasticity (add/remove slaves at
// runtime) and master failover by slave promotion.
//
// This is the deployment unit of the paper: MySQL instances on m1.small
// VMs, one per replica, managed entirely by the application.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
)

// NodeSpec places one database node.
type NodeSpec struct {
	Place cloud.Placement
	Type  cloud.InstanceType
}

// Config describes a cluster.
type Config struct {
	// Mode is the replication synchronization model.
	Mode repl.Mode
	// Cost is the statement cost model for every node.
	Cost server.CostModel
	// Master places the master node.
	Master NodeSpec
	// Slaves places the initial replicas.
	Slaves []NodeSpec
	// Preload initializes a node's schema and data before it joins; it
	// runs identically on the master and on every slave (the paper starts
	// every run "with a pre-loaded, fully-synchronized database").
	Preload func(srv *server.DBServer) error
	// PriorityApply runs every slave's SQL thread at high CPU priority
	// (see server.DBServer.PriorityApply).
	PriorityApply bool
	// ProvisionTime is how long ProvisionSlave's snapshot transfer and
	// restore take on the virtual timeline (default 30 s — roughly a
	// mysqldump of the paper's data set over a zone-local link plus the VM
	// boot). Writes committed during this window become the new replica's
	// catch-up backlog.
	ProvisionTime time.Duration
	// Pipeline configures the replication data path: master group commit,
	// batched binlog shipping, and parallel slave apply. The zero value is
	// the classic one-statement-at-a-time path.
	Pipeline repl.PipelineConfig
	// NaivePlan forces every node's SQL engine to the naive (pre-planner
	// parity) query planner: syntax-order joins, no predicate pushdown, no
	// cost-based join-algorithm choice. The A-PLAN ablation sets it to
	// measure how much the cost-based planner buys in end-to-end ops/s.
	NaivePlan bool
	// NamePrefix prepends every instance name this cluster creates
	// ("master", "slave1", ...). A sharded deployment runs one Cluster per
	// cell and sets a per-cell prefix ("cell0/", "cell1/", ...) so instance
	// names — and everything keyed by them: chaos targets, trace spans,
	// vclock daemons, metric labels — stay unique across cells. Empty keeps
	// the classic single-cluster names.
	NamePrefix string
}

// Cluster is the running database tier.
type Cluster struct {
	env   *sim.Env
	cloud *cloud.Cloud
	cfg   Config

	master *repl.Master
	slaves []*repl.Slave
	tracer *obs.Tracer
	// basePos is the master binlog position right after preload; late
	// slaves preload the same snapshot and attach here.
	basePos uint64
	nextID  int
}

// New builds and starts the cluster.
func New(env *sim.Env, cl *cloud.Cloud, cfg Config) (*Cluster, error) {
	c := &Cluster{env: env, cloud: cl, cfg: cfg}
	mSrv := c.launch("master", cfg.Master)
	if cfg.Preload != nil {
		if err := cfg.Preload(mSrv); err != nil {
			return nil, fmt.Errorf("cluster: preload master: %w", err)
		}
	}
	mSrv.GroupCommitWindow = cfg.Pipeline.GroupCommitWindow
	c.master = repl.NewMaster(env, mSrv, cl.Network(), cfg.Mode)
	c.master.Pipeline = cfg.Pipeline
	c.basePos = mSrv.Log.LastSeq()
	for _, spec := range cfg.Slaves {
		if _, err := c.AddSlave(spec); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// launch starts one database node — instance (Small unless spec says
// otherwise), server, planner mode, tracer — under the cluster's name prefix.
func (c *Cluster) launch(name string, spec NodeSpec) *server.DBServer {
	if spec.Type.Name == "" {
		spec.Type = cloud.Small
	}
	name = c.cfg.NamePrefix + name
	srv := server.New(c.env, name, c.cloud.Launch(name, spec.Type, spec.Place), c.cfg.Cost)
	srv.Eng.NaivePlan = c.cfg.NaivePlan
	srv.Tracer = c.tracer
	return srv
}

// launchSlave starts the next replica node ("slave1", "slave2", ...) with the
// cluster's applier priority.
func (c *Cluster) launchSlave(spec NodeSpec) *server.DBServer {
	c.nextID++
	srv := c.launch(fmt.Sprintf("slave%d", c.nextID), spec)
	srv.PriorityApply = c.cfg.PriorityApply
	return srv
}

// Env returns the simulation environment.
func (c *Cluster) Env() *sim.Env { return c.env }

// Cloud returns the provider.
func (c *Cluster) Cloud() *cloud.Cloud { return c.cloud }

// Master returns the current replication master.
func (c *Cluster) Master() *repl.Master { return c.master }

// SetTracer wires tr into the whole replication topology — the master, its
// server and every slave's server — and keeps it wired across AddSlave,
// provisioning and Failover. core.WithTracer calls this at Open; nil turns
// tracing off.
func (c *Cluster) SetTracer(tr *obs.Tracer) {
	c.tracer = tr
	c.master.SetTracer(tr)
}

// Slaves returns the attached replicas.
func (c *Cluster) Slaves() []*repl.Slave { return c.master.Slaves() }

// AddSlave launches, preloads and attaches a new replica. The new node
// replays every write committed after the preload snapshot, in order.
func (c *Cluster) AddSlave(spec NodeSpec) (*repl.Slave, error) {
	srv := c.launchSlave(spec)
	if c.cfg.Preload != nil {
		if err := c.cfg.Preload(srv); err != nil {
			return nil, fmt.Errorf("cluster: preload %s: %w", srv.Name, err)
		}
	}
	sl := repl.NewSlave(c.env, srv)
	c.master.Attach(sl, c.basePos)
	c.slaves = append(c.slaves, sl)
	return sl, nil
}

// RemoveSlave detaches a replica and terminates its instance.
func (c *Cluster) RemoveSlave(sl *repl.Slave) {
	c.master.Detach(sl)
	sl.Srv.Inst.Terminate()
}

// ErrNoPromotable is returned by Failover when no live slave exists.
var ErrNoPromotable = errors.New("cluster: no live slave to promote")

// Failover promotes the most-up-to-date live slave to master after a master
// failure: its replication threads stop, a new Master wraps its server, and
// the remaining slaves re-attach at their applied positions (entries they
// already have are not replayed; entries the promoted slave never received
// are lost, the documented risk of asynchronous replication).
func (c *Cluster) Failover() (*repl.Master, error) {
	var best *repl.Slave
	for _, sl := range c.master.Slaves() {
		if !sl.Srv.Up() {
			continue
		}
		if best == nil || sl.AppliedSeq() > best.AppliedSeq() {
			best = sl
		}
	}
	if best == nil {
		return nil, ErrNoPromotable
	}
	rest := make([]*repl.Slave, 0, len(c.master.Slaves())-1)
	for _, sl := range c.master.Slaves() {
		if sl != best {
			rest = append(rest, sl)
		}
		c.master.Detach(sl)
	}
	// The promoted server's binlog mirrors the old master's (same preload,
	// same applied statements in order, log-slave-updates style), so the
	// old sequence numbering remains valid for re-attachment.
	best.Srv.GroupCommitWindow = c.cfg.Pipeline.GroupCommitWindow
	newMaster := repl.NewMaster(c.env, best.Srv, c.cloud.Network(), c.cfg.Mode)
	// New reign, new epoch: session-consistency tokens minted under the old
	// master carry its epoch and cannot be compared against the promoted
	// master's sequence numbering (writes past the promoted log are lost).
	newMaster.Epoch = c.master.Epoch + 1
	newMaster.Pipeline = c.cfg.Pipeline
	newMaster.SetTracer(c.tracer)
	c.master = newMaster
	c.slaves = nil
	for _, old := range rest {
		if !old.Srv.Up() {
			continue
		}
		pos := old.AppliedSeq()
		if last := best.Srv.Log.LastSeq(); pos > last {
			pos = last // writes beyond the promoted log are lost
		}
		sl := repl.NewSlave(c.env, old.Srv)
		newMaster.Attach(sl, pos)
		c.slaves = append(c.slaves, sl)
	}
	return newMaster, nil
}

// ProvisionSlave provisions a replica from a live snapshot of the master
// (the mysqldump/xtrabackup flow) instead of re-running the deterministic
// preload, at the cost the paper's operators actually pay: the snapshot is
// captured at the current binlog position, then Config.ProvisionTime elapses
// for transfer + restore + boot, and only then does the replica attach — at
// exactly the position the snapshot captured, so no history needs replaying
// and no write is applied twice — and start replicating. Every write committed
// during that window is its catch-up backlog, so a freshly provisioned
// slave comes up stale and converges — the reason elastic scale-out needs a
// warm-up gate before the proxy may route reads to it. Must be called from
// a simulation process.
func (c *Cluster) ProvisionSlave(p *sim.Proc, spec NodeSpec) (*repl.Slave, error) {
	srv, pos, err := c.snapshotProvision(spec)
	if err != nil {
		return nil, err
	}
	d := c.cfg.ProvisionTime
	if d <= 0 {
		d = 30 * time.Second
	}
	p.Sleep(d)
	return c.attachProvisioned(srv, pos), nil
}

// snapshotProvision launches a node and restores the master's state onto
// it, returning the server and the binlog position the snapshot captured
// (consistent by construction: both are taken at the same virtual instant).
func (c *Cluster) snapshotProvision(spec NodeSpec) (*server.DBServer, uint64, error) {
	srv := c.launchSlave(spec)
	// Pin the master's commit version at the recorded binlog position, then
	// materialize: a non-quiescent versioned read — concurrent writers keep
	// committing, chain GC holds the pinned images until Close.
	pos := c.master.Srv.Log.LastSeq()
	h := c.master.Srv.Eng.Pin()
	defer h.Close()
	if err := srv.Eng.Restore(h.Materialize()); err != nil {
		return nil, 0, fmt.Errorf("cluster: provision %s: %w", srv.Name, err)
	}
	return srv, pos, nil
}

// attachProvisioned wires a restored server into the replication topology
// at its snapshot position.
func (c *Cluster) attachProvisioned(srv *server.DBServer, pos uint64) *repl.Slave {
	sl := repl.NewSlave(c.env, srv)
	c.master.Attach(sl, pos)
	c.slaves = append(c.slaves, sl)
	return sl
}
