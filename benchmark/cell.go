package main

import (
	"fmt"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/vclock"
)

// workload is one Cloudstone cell: a fixed topology and traffic mix, driven
// closed loop by Users emulated users (each waits for its reply, then thinks).
// Every node is an m1.small, replication is asynchronous, reads are balanced
// round-robin and instance speeds are homogeneous (CPUCoV = 0).
type workload struct {
	Name      string
	Why       string
	Users     int
	ReadRatio float64
	Scale     int
	Cells     int // 1 = one master; >1 = cell-sharded behind the shard router
	Slaves    int // per cell
	SlaveAt   cloud.Placement
	// Converges marks a cell with headroom on every tier: once the grace
	// period is over each slave must hold exactly the master's rows.
	Converges bool
}

var (
	usWest1a = cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	euWest1a = cloud.Placement{Region: cloud.EUWest1, Zone: "a"}
)

// workloads are the four cells; BENCHMARK.json repeats the names and reasons.
var workloads = []workload{
	{
		Name: "geo_light", Users: 50, ReadRatio: 0.5, Scale: 300, Cells: 1, Slaves: 2, SlaveAt: euWest1a, Converges: true,
		Why: "nothing saturates and slaves sit across an ocean: latency is half-RTTs plus service time and throughput is pinned by think time, so CPU-side changes must not move ops_per_vsec",
	},
	{
		Name: "master_bound", Users: 200, ReadRatio: 0.5, Scale: 300, Cells: 1, Slaves: 4, SlaveAt: usWest1a,
		Why: "the paper's central finding: the master saturates on writes plus 4-way binlog shipping, so only write-path changes move throughput and slave-side read changes must not",
	},
	{
		Name: "read_heavy", Users: 150, ReadRatio: 0.8, Scale: 600, Cells: 1, Slaves: 2, SlaveAt: usWest1a,
		Why: "slaves saturate on scan, join, top-N and aggregate reads that compete with the applier: executor work pays off here and master-side changes must not",
	},
	{
		Name: "shard_write_heavy", Users: 400, ReadRatio: 0.2, Scale: 300, Cells: 2, Slaves: 2, SlaveAt: usWest1a,
		Why: "two cells of one master and two slaves behind the shard router: inserts and index maintenance instead of scans, and single-key routing plus scatter-gather that no other workload touches",
	},
}

// protocol is the virtual-time shape of one rep: users arrive staggered over
// RampUp, only pages completed inside Steady count toward latency and
// throughput, users leave during RampDown, and Grace lets in-flight
// replication land so the steady window's heartbeats have their delay.
type protocol struct {
	RampUp, Steady, RampDown, Grace time.Duration
}

func (pr protocol) total() time.Duration { return pr.RampUp + pr.Steady + pr.RampDown }

var (
	// paperProtocol is the paper's 10/20/5 minutes plus the replication grace.
	paperProtocol = protocol{10 * time.Minute, 20 * time.Minute, 5 * time.Minute, 2 * time.Minute}
	// shortProtocol is the warm-up and smoke-test shape.
	shortProtocol = protocol{2 * time.Minute, 5 * time.Minute, time.Minute, time.Minute}
)

// cell is one assembled workload: the simulated cloud, the replicated tier
// and the application handle, built only from the layers' public constructors.
type cell struct {
	w       *workload
	env     *sim.Env
	cloud   *cloud.Cloud
	db      *core.DB
	masters []*repl.Master // one per shard cell
	beats   []*heartbeat.Plugin
	ntp     []*vclock.Daemon
	tracer  *obs.Tracer // nil unless the cell was opened traced
}

// openCell assembles the workload's cell on a fresh simulation: cloud,
// cluster(s) with the data set preloaded on every node, pool and proxy (or
// shard router), NTP on every instance and one heartbeat plugin per master.
func openCell(w *workload, seed int64, traced bool) (*cell, error) {
	env := sim.NewEnv(seed)
	cfg := cloud.DefaultConfig()
	cfg.CPUCoV = 0
	cl := cloud.New(env, cfg)
	c := &cell{w: w, env: env, cloud: cl}

	slaves := make([]cluster.NodeSpec, w.Slaves)
	for i := range slaves {
		slaves[i] = cluster.NodeSpec{Place: w.SlaveAt}
	}
	cluCfg := cluster.Config{
		Mode:   repl.Async,
		Cost:   costModel,
		Master: cluster.NodeSpec{Place: usWest1a},
		Slaves: slaves,
	}
	preload := func(data func(*server.DBServer) error) func(*server.DBServer) error {
		return func(srv *server.DBServer) error {
			if err := data(srv); err != nil {
				return err
			}
			return heartbeat.Preload(srv)
		}
	}
	opts := []core.Option{
		core.WithDatabase(cloudstone.DatabaseName),
		core.WithClientPlace(usWest1a),
		core.WithPool(pool.Config{MaxActive: w.Users + 8, MaxIdle: w.Users + 8}),
	}
	if traced {
		c.tracer = obs.NewTracer(env)
		opts = append(opts, core.WithTracer(c.tracer))
	}

	if w.Cells > 1 {
		opts = append(opts,
			core.WithShards(w.Cells),
			core.WithKeyspace(cloudstone.ShardKeyspace()),
			core.WithPartitionedPreload(func(owns func(string, int64) bool) func(*server.DBServer) error {
				return preload(cloudstone.PreloadOwned(w.Scale, owns))
			}))
		db, err := core.OpenSharded(env, cl, cluCfg, opts...)
		if err != nil {
			env.Shutdown()
			return nil, fmt.Errorf("open %s: %w", w.Name, err)
		}
		c.db = db
		for _, sc := range db.Shards().Cells() {
			c.masters = append(c.masters, sc.Clu.Master())
		}
	} else {
		cluCfg.Preload = preload(cloudstone.Preload(w.Scale))
		clu, err := cluster.New(env, cl, cluCfg)
		if err != nil {
			env.Shutdown()
			return nil, fmt.Errorf("open %s: %w", w.Name, err)
		}
		c.db = core.Open(clu, opts...)
		c.masters = []*repl.Master{clu.Master()}
	}

	// NTP against four servers every second, the paper's configuration.
	for _, inst := range cl.Instances() {
		bias := time.Duration(env.Rand().NormFloat64() * float64(1650*time.Microsecond))
		c.ntp = append(c.ntp, vclock.StartDaemon(env, inst.Name+"/ntp", inst.Clock, vclock.NTPConfig{
			Interval: time.Second, Bias: bias, JitterSigma: 600 * time.Microsecond, Servers: 4,
		}))
	}
	return c, nil
}

// startHeartbeats launches the paper's delay probe on every master.
func (c *cell) startHeartbeats() {
	for _, m := range c.masters {
		c.beats = append(c.beats, heartbeat.Start(c.env, m, time.Second))
	}
}

// stopNTP silences the clock daemons: the host ledger wants a cell in which
// nothing runs but the call being measured and what that call sets off.
func (c *cell) stopNTP() {
	for _, d := range c.ntp {
		d.Stop()
	}
}

// slaves lists every replica, cell by cell.
func (c *cell) slaves() []*repl.Slave {
	var out []*repl.Slave
	for _, m := range c.masters {
		out = append(out, m.Slaves()...)
	}
	return out
}

// close unwinds every simulation process so no goroutine outlives the cell.
func (c *cell) close() {
	c.env.Stop()
	c.env.Shutdown()
}
