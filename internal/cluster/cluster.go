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
	"cloudrepl/internal/sqlengine"
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
	// Preload installs the schema and the initial data. It runs once, on the
	// master; every slave starts from the image of the master's engine taken
	// right after it (the paper starts every run "with a pre-loaded,
	// fully-synchronized database").
	Preload func(srv *server.DBServer) error
	// PriorityApply runs every slave's SQL thread at high CPU priority
	// (see server.DBServer.PriorityApply).
	PriorityApply bool
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
	tracer *obs.Tracer
	// base is the image of the first master's engine right after Preload and
	// basePos its binlog position then: what AddSlave, however late, starts a
	// replica from and where it attaches it.
	base    *sqlengine.Snapshot
	basePos uint64
	nextID  int
}

// New builds and starts the cluster. When it fails, every instance it
// launched has been terminated.
func New(env *sim.Env, cl *cloud.Cloud, cfg Config) (*Cluster, error) {
	c := &Cluster{env: env, cloud: cl, cfg: cfg}
	mSrv := c.launch("master", cfg.Master)
	if cfg.Preload != nil {
		if err := cfg.Preload(mSrv); err != nil {
			mSrv.Inst.Terminate()
			return nil, fmt.Errorf("cluster: preload master: %w", err)
		}
	}
	mSrv.GroupCommitWindow = cfg.Pipeline.GroupCommitWindow
	c.master = repl.NewMaster(env, mSrv, cl.Network(), cfg.Mode)
	c.master.Pipeline = cfg.Pipeline
	c.base, c.basePos = mSrv.Eng.Snapshot(), mSrv.Log.LastSeq()
	for _, spec := range cfg.Slaves {
		if _, err := c.AddSlave(spec); err != nil {
			for _, sl := range c.Slaves() {
				c.RemoveSlave(sl)
			}
			mSrv.Inst.Terminate()
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

// AddSlave launches a new replica that starts from the base image — the data
// set as Preload left it — and attaches it at the base position: the new node
// replays every write committed since, in order. It fails when the current
// master's binlog no longer reaches back that far (a replica provisioned later
// was promoted); ProvisionSlave still works then.
func (c *Cluster) AddSlave(spec NodeSpec) (*repl.Slave, error) {
	return c.startReplica(spec, c.base, c.basePos, nil)
}

// startReplica is how every replica is born: a node is launched and restored
// from img — the master's engine as it stood at binlog position pos — with its
// own binlog starting at pos, so its sequence numbering is the master's; then,
// once wait (nil for none) has returned, it is attached to the current master
// at pos. A node that cannot be restored or attached is terminated.
func (c *Cluster) startReplica(spec NodeSpec, img *sqlengine.Snapshot, pos uint64, wait func()) (*repl.Slave, error) {
	srv := c.launchSlave(spec)
	err := srv.Restore(img, pos)
	if err == nil {
		if wait != nil {
			wait()
		}
		sl := repl.NewSlave(c.env, srv)
		if err = c.master.Attach(sl, repl.Executed{Low: pos}); err == nil {
			return sl, nil
		}
	}
	srv.Inst.Terminate()
	return nil, fmt.Errorf("cluster: start %s: %w", srv.Name, err)
}

// RemoveSlave detaches a replica and terminates its instance.
func (c *Cluster) RemoveSlave(sl *repl.Slave) {
	c.master.Detach(sl)
	sl.Srv.Inst.Terminate()
}

// ErrNoPromotable is returned by Failover when no live slave exists.
var ErrNoPromotable = errors.New("cluster: no live slave to promote")

// Failover promotes the live slave that has executed most to master after a
// master failure: its replication threads stop, a new Master wraps its server,
// and the remaining slaves re-attach with what each has executed
// (repl.Slave.Executed: a statement a survivor has run, paid for or not, ahead
// of a gap or not, is not shipped to it again; entries the promoted slave
// never received are lost, the documented risk of asynchronous replication).
// A live slave that has applied less than the promoted binlog reaches back to — the
// promoted replica was provisioned after that point — cannot follow it: it is
// terminated, as RemoveSlave would, and returned in dropped.
func (c *Cluster) Failover() (promoted *repl.Master, dropped []*repl.Slave, err error) {
	var best *repl.Slave
	for _, sl := range c.master.Slaves() {
		if !sl.Srv.Up() {
			continue
		}
		if best == nil || sl.Executed().Low > best.Executed().Low {
			best = sl
		}
	}
	if best == nil {
		return nil, nil, ErrNoPromotable
	}
	rest := make([]*repl.Slave, 0, len(c.master.Slaves())-1)
	for _, sl := range c.master.Slaves() {
		if sl != best {
			rest = append(rest, sl)
		}
		c.master.Detach(sl)
	}
	// Every replica's binlog starts at the master position its image was taken
	// at and gains one entry per statement it applies (log-slave-updates
	// style), so the promoted server's log numbers the entries it holds as the
	// old master's did: a survivor's position means the same in both.
	best.Srv.GroupCommitWindow = c.cfg.Pipeline.GroupCommitWindow
	newMaster := repl.NewMaster(c.env, best.Srv, c.cloud.Network(), c.cfg.Mode)
	// New reign, new epoch: session-consistency tokens minted under the old
	// master carry its epoch and cannot be compared against the promoted
	// master's sequence numbering (writes past the promoted log are lost).
	newMaster.Epoch = c.master.Epoch + 1
	newMaster.Pipeline = c.cfg.Pipeline
	newMaster.SetTracer(c.tracer)
	c.master = newMaster
	for _, old := range rest {
		if !old.Srv.Up() {
			continue
		}
		// Writes beyond the promoted log are lost: never past its end.
		from := old.Executed().Trim(best.Srv.Log.LastSeq())
		if newMaster.Attach(repl.NewSlave(c.env, old.Srv), from) != nil {
			old.Srv.Inst.Terminate()
			dropped = append(dropped, old)
		}
	}
	return newMaster, dropped, nil
}

// provisionTime is how long ProvisionSlave's snapshot transfer and restore
// take on the virtual timeline — roughly a mysqldump of the paper's data set
// over a zone-local link plus the VM boot. Writes committed during this window
// become the new replica's catch-up backlog.
const provisionTime = 30 * time.Second

// ProvisionSlave provisions a replica from a live snapshot of the master
// (the mysqldump/xtrabackup flow) instead of the base image, at the cost the
// paper's operators actually pay: the image is captured at the current binlog
// position, then provisionTime elapses for transfer + restore + boot,
// and only then does the replica attach — at exactly the position the image
// captured, so no history needs replaying and no write is applied twice — and
// start replicating. Every write committed during that window is its catch-up
// backlog, so a freshly provisioned slave comes up stale and converges — the
// reason elastic scale-out needs a warm-up gate before the proxy may route
// reads to it. Must be called from a simulation process.
func (c *Cluster) ProvisionSlave(p *sim.Proc, spec NodeSpec) (*repl.Slave, error) {
	// Image and position are taken at one virtual instant, so they agree.
	m := c.master.Srv
	return c.startReplica(spec, m.Eng.Snapshot(), m.Log.LastSeq(), func() { p.Sleep(provisionTime) })
}
