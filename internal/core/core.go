// Package core is the public face of cloudrepl: an application-managed
// replicated database handle. It composes the cluster (master + slaves on
// cloud VMs), a DBCP-style connection pool and a read/write-splitting proxy
// into the single object an application codes against — the architecture
// the paper ports from a conventional data center onto cloud VMs.
//
//	db := core.Open(clu,
//		core.WithDatabase("app"),
//		core.WithClientPlace(place))
//	db.Exec(p, "INSERT INTO t ...")   // routed to the master
//	db.Query(p, "SELECT ...")         // balanced over the slaves
//
// The handle is configured with functional options (see options.go).
package core

import (
	"errors"
	"fmt"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/shard"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// Conn is what the handle's pool lends out per statement: a single-cluster
// proxy connection or a sharded routed connection — the application never
// sees the difference.
type Conn interface {
	Exec(p *sim.Proc, sql string, args ...sqlengine.Value) (*proxy.ExecResult, error)
}

// DB is a replicated database handle over a list of (cluster, proxy) cells:
// one from Open, N behind the shard router from OpenSharded. Everything but
// statement routing — Staleness, Scale, Failover, WaitCaughtUp,
// ValidateInstances, Stats — walks that list and does not know which
// constructor built it.
type DB struct {
	// cells lists the handle's cells in id order. A function, not a slice: a
	// sharded tier grows by one on every split.
	cells  func() []*shard.Cell
	sc     *shard.Cluster // the router in front of the cells; nil from Open
	pool   *pool.Pool[Conn]
	tracer *obs.Tracer
	client clientStats
}

// clientStats is what the handle itself counts, written by Exec and read by
// Metrics like every component's Stats.
type clientStats struct {
	errors uint64            // statements that failed, at the pool or behind it
	exec   metrics.Histogram // end-to-end statement latency, failures included
}

// Open wires a handle onto a running cluster.
func Open(clu *cluster.Cluster, opts ...Option) *DB {
	cfg := newConfig(opts)
	one := []*shard.Cell{{Clu: clu, Px: cfg.routing.Proxy(clu, cfg.tracer)}}
	db := &DB{cells: func() []*shard.Cell { return one }}
	db.finishOpen(clu.Env(), cfg, func() Conn { return one[0].Px.Connect(cfg.database) })
	return db
}

// OpenSharded builds a cell-sharded deployment and wires a handle onto it:
// WithShards(n) cells, each a full cluster from the cellCfg template
// (instances named "cell<i>/..."), fronted by the shard router. The
// application surface is unchanged — Exec routes single-key statements to
// the owning cell and scatters multi-key reads; Scale spreads added
// replicas across cells; SplitShard grows the tier by a cell online.
func OpenSharded(env *sim.Env, cl *cloud.Cloud, cellCfg cluster.Config, opts ...Option) (*DB, error) {
	cfg := newConfig(opts)
	sc, err := shard.New(env, cl, shard.Config{
		Cells:              cfg.shards,
		Keyspace:           cfg.keyspace,
		Database:           cfg.database,
		Cell:               cellCfg,
		PartitionedPreload: cfg.partitionedPreload,
		Routing:            cfg.routing,
	})
	if err != nil {
		return nil, err
	}
	if cfg.tracer != nil {
		sc.SetTracer(cfg.tracer)
	}
	db := &DB{cells: sc.Cells, sc: sc}
	db.finishOpen(env, cfg, func() Conn { return sc.Connect(cfg.database) })
	return db, nil
}

// finishOpen completes construction once the cells exist: the tracer, then
// the pool lending connections from connect. The order (cells and their
// proxies, then the pool) fixes proc names and RNG draws, so it is part of the
// determinism contract.
func (db *DB) finishOpen(env *sim.Env, cfg config, connect func() Conn) {
	db.tracer = cfg.tracer
	db.pool = pool.New(env, cfg.pool, connect, nil)
	db.pool.Tracer = cfg.tracer
}

// Cluster returns the cluster behind a one-cell handle, nil when the handle
// fronts several (use Shards().Cells() for the per-cell clusters).
func (db *DB) Cluster() *cluster.Cluster {
	if cells := db.cells(); len(cells) == 1 {
		return cells[0].Clu
	}
	return nil
}

// Proxy returns the routing proxy of a one-cell handle, nil when the handle
// fronts several (each cell has its own, at Shards().Cells()[i].Px).
func (db *DB) Proxy() *proxy.Proxy {
	if cells := db.cells(); len(cells) == 1 {
		return cells[0].Px
	}
	return nil
}

// Shards returns the sharded cluster (nil on a handle from Open).
func (db *DB) Shards() *shard.Cluster { return db.sc }

// Pool returns the connection pool.
func (db *DB) Pool() *pool.Pool[Conn] { return db.pool }

// Exec borrows a connection, routes and executes one statement, and returns
// the connection to the pool. It must be called from a simulation process.
// With tracing on it opens the root "client" span of the statement's trace;
// end-to-end latency is always recorded into the client.exec histogram.
func (db *DB) Exec(p *sim.Proc, sql string, args ...sqlengine.Value) (*proxy.ExecResult, error) {
	sp := db.tracer.StartSpan(p, "client", "exec")
	start := p.Now()
	conn, err := db.pool.Borrow(p)
	if err != nil {
		db.client.errors++
		sp.SetAttr("error", "pool")
		sp.End(p)
		return nil, err
	}
	res, err := conn.Exec(p, sql, args...)
	db.pool.Return(conn)
	db.client.exec.Record(time.Duration(p.Now() - start))
	if err != nil {
		db.client.errors++
		sp.SetAttr("error", "exec")
	}
	sp.End(p)
	return res, err
}

// Query is Exec returning the result set.
func (db *DB) Query(p *sim.Proc, sql string, args ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	res, err := db.Exec(p, sql, args...)
	if err != nil {
		return nil, err
	}
	return res.Result.Set, nil
}

// Staleness summarizes the cluster's current replication state as seen by
// the application: per-slave events behind the master.
type Staleness struct {
	Slaves []SlaveLag
	// MaxEvents is the worst lag across slaves.
	MaxEvents uint64
}

// SlaveLag is one replica's lag.
type SlaveLag struct {
	Name         string
	EventsBehind uint64
	RelayBacklog int
}

// Staleness samples the replication lag of every attached slave, cell by
// cell (on a sharded handle slave names carry their cell prefix).
func (db *DB) Staleness() Staleness {
	var st Staleness
	for _, c := range db.cells() {
		for _, sl := range c.Clu.Slaves() {
			lag := sl.EventsBehindMaster()
			st.Slaves = append(st.Slaves, SlaveLag{
				Name:         sl.Srv.Name,
				EventsBehind: lag,
				RelayBacklog: sl.RelayBacklog(),
			})
			if lag > st.MaxEvents {
				st.MaxEvents = lag
			}
		}
	}
	return st
}

// ScaleOpts tunes DB.Scale.
type ScaleOpts struct {
	// Spec places the added replicas (zero value: a Small instance in the
	// provider's default zone, like cluster.AddSlave).
	Spec cluster.NodeSpec
}

// Scale adds n replicas, each on the cell with the fewest slaves (ties to the
// lowest id). It only grows the tier: the one graceful removal — quarantine,
// drain the in-flight reads, then detach — is the elastic controller's.
func (db *DB) Scale(n int, opts ScaleOpts) error {
	cells := db.cells()
	for ; n > 0; n-- {
		target := cells[0]
		for _, c := range cells[1:] {
			if len(c.Clu.Slaves()) < len(target.Clu.Slaves()) {
				target = c
			}
		}
		if _, err := target.Clu.AddSlave(opts.Spec); err != nil {
			return err
		}
	}
	return nil
}

// SplitShard grows a sharded deployment by one cell online (copy, dual
// write, cutover); see shard.Cluster.Split. It fails on a handle from Open.
func (db *DB) SplitShard(p *sim.Proc) (*shard.SplitReport, error) {
	if db.sc == nil {
		return nil, errors.New("core: SplitShard requires a sharded handle (OpenSharded)")
	}
	return db.sc.Split(p)
}

// Failover promotes a slave in every cell whose master instance is down, as
// the cloud reports it, and re-points that cell's proxy; cells whose master
// is up are left alone, so calling it after a proxy's failover hook
// (shard.Routing.Proxy) has already promoted is harmless. It returns the
// first promotion that failed or — the promotion done — had to terminate
// replicas too far behind the promoted binlog (cluster.Cluster.Failover).
func (db *DB) Failover() error {
	var firstErr error
	for _, c := range db.cells() {
		if c.Clu.Master().Srv.Up() {
			continue
		}
		m, dropped, err := c.Clu.Failover()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: failover of %s: %w", c.Clu.Master().Srv.Name, err)
			}
			continue
		}
		c.Px.SetMaster(m)
		if len(dropped) > 0 && firstErr == nil {
			firstErr = fmt.Errorf("core: failover to %s terminated %d replica(s) that had applied less than its binlog reaches back to",
				m.Srv.Name, len(dropped))
		}
	}
	return firstErr
}

// WaitCaughtUp blocks until every slave of every cell has applied its
// master's current binlog position or the timeout elapses; it reports
// success.
func (db *DB) WaitCaughtUp(p *sim.Proc, timeout time.Duration) bool {
	deadline := p.Now() + timeout
	cells := db.cells()
	targets := make([]uint64, len(cells))
	for i, c := range cells {
		targets[i] = c.Clu.Master().Srv.Log.LastSeq()
	}
	for {
		ok := true
		for i, c := range cells {
			for _, sl := range c.Clu.Slaves() {
				if sl.AppliedSeq() < targets[i] {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
		if p.Now() >= deadline {
			return false
		}
		p.Sleep(50 * time.Millisecond)
	}
}

// InstanceReport is one node's validation result.
type InstanceReport struct {
	Name  string
	Place cloud.Placement
	Speed float64
}

// ValidateInstances measures the effective CPU speed of every node behind
// the handle, masters first — the paper's §IV-A advice to validate instance
// performance before accepting a deployment, since a slow physical host
// visibly caps end-to-end throughput. Run it before opening the tier to
// traffic: the probe competes with client load otherwise.
func (db *DB) ValidateInstances(p *sim.Proc, probes int) []InstanceReport {
	var out []InstanceReport
	report := func(srv *server.DBServer) {
		out = append(out, InstanceReport{
			Name:  srv.Name,
			Place: srv.Inst.Place,
			Speed: cloud.MeasureSpeed(p, srv.Inst, probes),
		})
	}
	cells := db.cells()
	for _, c := range cells {
		report(c.Clu.Master().Srv)
	}
	for _, c := range cells {
		for _, sl := range c.Clu.Slaves() {
			report(sl.Srv)
		}
	}
	return out
}

// Stats aggregates the handle's middleware counters. Proxy sums every cell's
// proxy. Repl is the master's pipeline counters on a handle from Open and
// stays zero on a sharded one (Metrics has each cell's replication counters
// under "shard.cell<i>.repl.*"), where Shard carries the router counters
// instead.
type Stats struct {
	Proxy proxy.Stats
	Pool  pool.Stats
	Repl  repl.Stats
	Shard shard.Stats
}

// Stats returns a snapshot of proxy routing, pool activity and replication
// pipeline counters.
func (db *DB) Stats() Stats {
	st := Stats{Pool: db.pool.Stats()}
	cells := db.cells()
	for _, c := range cells {
		st.Proxy.Add(c.Px.Stats())
	}
	if sc := db.sc; sc != nil {
		st.Shard = sc.Stats()
	} else {
		st.Repl = cells[0].Clu.Master().Stats()
	}
	return st
}

// Metrics returns the flattened snapshot (name → value) that the bench JSON
// output embeds, read at the moment of the call: the handle's own instruments
// (client.exec, client.errors — each once it has been touched), then every
// component's Stats struct through obs.Flatten — proxy and replication bare on
// a handle from Open, per cell under "shard.cell<i>." beside the router's
// "shard.*" on a sharded one — and the handful of values no Stats struct
// holds, computed here. Nothing is registered ahead of time, so a cell a split
// added a moment ago is in the next snapshot.
func (db *DB) Metrics() map[string]float64 {
	out := make(map[string]float64)
	if db.client.exec.Total() > 0 {
		obs.FlattenHistogram(out, "client.exec", &db.client.exec)
	}
	if db.client.errors > 0 {
		out["client.errors"] = float64(db.client.errors)
	}
	cells := db.cells()
	if sc := db.sc; sc != nil {
		out["shard.cells"] = float64(len(cells))
		out["shard.slots"] = float64(sc.Map().NumSlots())
		out["shard.map_version"] = float64(sc.Map().Version())
		obs.Flatten(out, "shard.router.", sc.Stats())
		// Tail latency of scatters is a headline shard metric: p99 too.
		out["shard.latency.single.p99_ms"] = obs.FlattenHistogram(out, "shard.latency.single", sc.SingleLatency()).P99
		out["shard.latency.scatter.p99_ms"] = obs.FlattenHistogram(out, "shard.latency.scatter", sc.ScatterLatency()).P99
	}
	// Summed over every engine in the deployment: MVCC version-chain GC — the
	// evidence that chain memory is being reclaimed, not accreted — and the
	// plans built and statistics passes made, what re-ANALYZE costs a run.
	var gcRuns, gcVersions, gcRows, planBuilds, analyzeRuns uint64
	addEngine := func(srv *server.DBServer) {
		r, v, w := srv.Eng.GCStats()
		gcRuns, gcVersions, gcRows = gcRuns+r, gcVersions+v, gcRows+w
		b, a := srv.Eng.PlanStats()
		planBuilds, analyzeRuns = planBuilds+b, analyzeRuns+a
	}
	for _, c := range cells {
		prefix := ""
		if db.sc != nil {
			prefix = fmt.Sprintf("shard.cell%d.", c.ID)
		}
		m := c.Clu.Master()
		slaves := m.Slaves()
		obs.Flatten(out, prefix+"proxy.", c.Px.Stats())
		obs.Flatten(out, prefix+"repl.", m.Stats())
		out[prefix+"repl.slaves"] = float64(len(slaves))
		addEngine(m.Srv)
		for _, sl := range slaves {
			addEngine(sl.Srv)
		}
	}
	obs.Flatten(out, "pool.", db.pool.Stats())
	out["pool.active"] = float64(db.pool.Active())
	out["pool.idle"] = float64(db.pool.Idle())
	out["repl.max_events_behind"] = float64(db.Staleness().MaxEvents)
	out["sqlengine.gc.runs"] = float64(gcRuns)
	out["sqlengine.gc.versions_pruned"] = float64(gcVersions)
	out["sqlengine.gc.rows_pruned"] = float64(gcRows)
	out["sqlengine.plan.builds"] = float64(planBuilds)
	out["sqlengine.plan.analyze_runs"] = float64(analyzeRuns)
	return out
}

// Close shuts the connection pool; the cluster keeps running (databases
// outlive application handles).
func (db *DB) Close() { db.pool.Close() }
