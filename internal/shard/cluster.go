package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// numSlots is the hash-slot count. It bounds how many cells a cluster can
// ever grow to and how finely Split can rebalance.
const numSlots = 64

// Config describes a sharded deployment.
type Config struct {
	// Cells is the initial cell count (>= 1).
	Cells int
	// slots overrides numSlots for TestScatterScriptUnchanged, whose pinned
	// event count and end instant were taken on a 16-slot map by the kernel
	// that ran before goroutine recycling.
	slots int
	// Keyspace maps the schema onto the shard key space.
	Keyspace Keyspace
	// Database is the application database name; the split catch-up replay
	// filters binlog entries to it (heartbeat and other auxiliary
	// databases stay cell-local).
	Database string
	// Cell is the per-cell cluster template. NamePrefix and Preload are
	// overwritten per cell ("cell<i>/" and the partitioned preload).
	Cell cluster.Config
	// PartitionedPreload builds a cell's preload from an ownership
	// predicate: the cell's master loads exactly the rows the cell owns (plus
	// global tables, for which owns always reports true), once; its replicas
	// start from the master's image, like any cluster's.
	PartitionedPreload func(owns func(table string, key int64) bool) func(srv *server.DBServer) error
	// Routing wires every cell's proxy.
	Routing Routing
}

// Routing is the client-side half of a (cluster, proxy) cell: where the
// clients sit and how the proxy picks a backend for them. It is the one
// place a proxy is wired onto a cluster — core.Open builds its single cell
// from it, New and Split every cell of a sharded tier.
type Routing struct {
	// ClientPlace locates the client tier.
	ClientPlace cloud.Placement
	// Balancer builds the read balancer (nil = round-robin). A constructor,
	// not an instance: balancers keep per-slave state, so cells cannot share
	// one.
	Balancer func() proxy.Balancer
	// Consistency is the read tier the proxy enforces. In a sharded tier
	// session tokens are tracked per cell: each routed connection holds one
	// proxy connection (and thus one token) per cell, and dual-writes during
	// a split stamp the target cell's token so read-your-writes survives the
	// ownership flip.
	Consistency proxy.Consistency
	// MaxStaleEvents bounds the Bounded tier
	// (0 = proxy.DefaultMaxEventsBehind).
	MaxStaleEvents uint64
	// Retry configures client-side robustness. The proxy's master-failure
	// hook is always wired to the cluster's slave promotion; the policy
	// decides whether it is ever called.
	Retry proxy.RetryPolicy
}

// Proxy builds the proxy that fronts clu, traced by tr when non-nil.
func (r Routing) Proxy(clu *cluster.Cluster, tr *obs.Tracer) *proxy.Proxy {
	var balancer proxy.Balancer
	if r.Balancer != nil {
		balancer = r.Balancer()
	}
	px := proxy.New(clu.Env(), clu.Cloud().Network(), clu.Master(), r.ClientPlace, balancer)
	px.Consistency = r.Consistency
	px.MaxStaleEvents = r.MaxStaleEvents
	px.Retry = r.Retry
	px.OnMasterFailure = func(*sim.Proc) (*repl.Master, error) {
		m, _, err := clu.Failover() // a replica it had to drop is down, which is all a proxy needs to see
		return m, err
	}
	if tr != nil {
		px.Tracer = tr
		clu.SetTracer(tr)
	}
	return px
}

// Cell is one replicated partition: a full master/slaves cluster behind its
// own proxy. A handle from core.Open is one Cell with no router in front of
// it (and no ID of its own).
type Cell struct {
	ID  int
	Clu *cluster.Cluster
	Px  *proxy.Proxy
}

// Stats are the router's cumulative counters. The metric tag is the name
// obs.Flatten publishes a field under (after "shard.router.").
type Stats struct {
	SingleKey         uint64 `metric:"single_key"`          // statements routed to one owning cell
	ScatterOps        uint64 `metric:"scatter_ops"`         // scatter-gather reads (whole operations)
	ScatterLegs       uint64 `metric:"scatter_legs"`        // per-cell legs issued by scatters
	Broadcasts        uint64 `metric:"broadcasts"`          // statements sent to every cell
	AnyReads          uint64 `metric:"any_reads"`           // global-table reads served by one cell
	WrongShardRetries uint64 `metric:"wrong_shard_retries"` // ErrWrongShard observed and retried
	MapRefreshes      uint64 `metric:"map_refreshes"`       // stale maps replaced after ErrWrongShard
	DualWrites        uint64 `metric:"dual_writes"`         // writes mirrored to the split target
	Splits            uint64 `metric:"splits"`              // completed splits/rebalances
	SplitAborts       uint64 `metric:"split_aborts"`        // splits abandoned (dead target, topology change)
	MovedRows         uint64 `metric:"moved_rows"`          // rows copied by splits
	ReplayedEntries   uint64 `metric:"replayed_entries"`    // binlog entries replayed during catch-up
	Errors            uint64 `metric:"errors"`              // statements failed after routing
}

// Cluster is the sharded database tier: N cells, the authoritative Map and
// the statement router. It is constructed once per simulation and driven
// entirely from simulation processes.
type Cluster struct {
	env   *sim.Env
	cloud *cloud.Cloud
	cfg   Config
	ks    Keyspace
	m     *Map
	cells []*Cell

	routes map[string]*routeInfo
	mig    *migration
	stats  Stats

	hSingle  metrics.Histogram // successful single-key statement latency
	hScatter metrics.Histogram // successful scatter-gather read latency

	tracer *obs.Tracer
}

// New builds the cells (each preloaded with exactly the rows it owns) and
// the routing layer. Cells are numbered 0..Cells-1 and their instances are
// named "cell<i>/master", "cell<i>/slave<j>".
func New(env *sim.Env, cl *cloud.Cloud, cfg Config) (*Cluster, error) {
	if cfg.Cells < 1 {
		return nil, fmt.Errorf("shard: need at least one cell")
	}
	slots := numSlots
	if cfg.slots > 0 {
		slots = cfg.slots
	}
	if cfg.Cells > slots {
		return nil, fmt.Errorf("shard: %d cells exceed %d slots", cfg.Cells, slots)
	}
	if err := cfg.Keyspace.Validate(); err != nil {
		return nil, err
	}
	s := &Cluster{
		env:    env,
		cloud:  cl,
		cfg:    cfg,
		ks:     cfg.Keyspace,
		m:      NewMap(slots, cfg.Cells),
		routes: make(map[string]*routeInfo),
	}
	s.hSingle.SetRand(env.Rand())
	s.hScatter.SetRand(env.Rand())
	for i := 0; i < cfg.Cells; i++ {
		if _, err := s.addCell(ownsFor(s.ks, s.m, i)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// addCell builds and registers the next cell with the given preload
// ownership predicate.
func (s *Cluster) addCell(owns func(table string, key int64) bool) (*Cell, error) {
	id := len(s.cells)
	ccfg := s.cfg.Cell
	ccfg.NamePrefix = fmt.Sprintf("cell%d/", id)
	if s.cfg.PartitionedPreload != nil {
		ccfg.Preload = s.cfg.PartitionedPreload(owns)
	}
	clu, err := cluster.New(s.env, s.cloud, ccfg)
	if err != nil {
		return nil, fmt.Errorf("shard: cell %d: %w", id, err)
	}
	px := s.cfg.Routing.Proxy(clu, s.tracer)
	px.CheckOwner = s.checkOwner(id)
	cell := &Cell{ID: id, Clu: clu, Px: px}
	s.cells = append(s.cells, cell)
	return cell, nil
}

// ownsFor is the preload ownership predicate of a cell under m: global and
// unknown tables load everywhere, sharded rows load only into their owning
// cell. Under a nil m the cell owns no sharded row: a split-created cell gets
// schema and global tables only, and its sharded rows through the split copy.
//
// The load asks table-major (cloudstone.PreloadOwned), so the predicate keeps
// the last table it was asked about and whether that table is sharded: a call
// that repeats the name is a slot lookup. Its answers do not depend on the
// order it is asked in.
func ownsFor(ks Keyspace, m *Map, cellID int) func(table string, key int64) bool {
	last, sharded := "", ks.sharded("")
	return func(table string, key int64) bool {
		if table != last {
			last, sharded = table, ks.sharded(strings.ToLower(table))
		}
		return !sharded || m != nil && m.Owner(key) == cellID
	}
}

// Cells returns the cells in id order.
func (s *Cluster) Cells() []*Cell { return s.cells }

// NumCells returns the current cell count.
func (s *Cluster) NumCells() int { return len(s.cells) }

// Map returns the current shard map; a split replaces it at cutover.
func (s *Cluster) Map() *Map { return s.m }

// Stats returns the router counters.
func (s *Cluster) Stats() Stats { return s.stats }

// SingleLatency returns the single-key statement latency histogram.
func (s *Cluster) SingleLatency() *metrics.Histogram { return &s.hSingle }

// ScatterLatency returns the scatter-gather read latency histogram.
func (s *Cluster) ScatterLatency() *metrics.Histogram { return &s.hScatter }

// SetTracer wires tracing through every cell's proxy and replication
// topology.
func (s *Cluster) SetTracer(tr *obs.Tracer) {
	s.tracer = tr
	for _, c := range s.cells {
		c.Px.Tracer = tr
		c.Clu.SetTracer(tr)
	}
}

// route returns the cached routing decision for a statement text.
func (s *Cluster) route(sql string) *routeInfo {
	if ri, ok := s.routes[sql]; ok {
		return ri
	}
	ri := analyze(sql, s.ks)
	s.routes[sql] = ri
	return ri
}

// checkOwner builds a cell proxy's ownership check. It validates against
// the cluster's current map (not a connection's), so a client routing on a
// stale map gets proxy.ErrWrongShard and re-resolves. During a split's cutover
// barrier it also rejects statements on moving keys and scatter legs on
// the source cell, draining the source for the final catch-up.
func (s *Cluster) checkOwner(cellID int) func(sql string, args []sqlengine.Value) error {
	var keys []int64 // reused: the check never parks, so calls do not overlap
	return func(sql string, args []sqlengine.Value) error {
		ri := s.route(sql)
		if ri.err != nil {
			return nil // router surfaces its own error on the client path
		}
		switch ri.kind {
		case routeSingle:
			var err error
			if keys, err = ri.resolveKeys(keys, args); err != nil {
				return nil
			}
			mig := s.mig
			for _, k := range keys {
				if mig != nil && mig.barrier && mig.moving[s.m.SlotOf(k)] {
					return proxy.ErrWrongShard
				}
				if s.m.Owner(k) != cellID {
					return proxy.ErrWrongShard
				}
			}
		case routeScatter:
			if mig := s.mig; mig != nil && mig.barrier && cellID == mig.src {
				return proxy.ErrWrongShard
			}
		}
		return nil
	}
}

// Conn is one routed client connection: the map it routes on plus one
// lazily-opened proxy connection per cell. The map refreshes only when a
// cell rejects a statement with proxy.ErrWrongShard, so every topology
// change exercises the typed retry path end to end.
type Conn struct {
	sc    *Cluster
	db    string
	m     *Map
	conns []*proxy.Conn
	// dualSess caches direct sessions on split-target masters for the
	// dual-write window.
	dualSess map[*server.DBServer]*sqlengine.Session
	anyN     uint64  // round-robin cursor for routeAny
	keys     []int64 // single's resolved shard keys, reused per statement

	// Scatter state. A connection runs one statement at a time, so one set
	// of everything serves every scatter it issues, the legs' replies
	// included: what a warm scatter allocates is the merged result, which
	// sqlengine.Merge builds as an engine builds any result — out of nothing
	// the connection, a leg or the merge keeps.
	legs    []*scatterLeg          // standing leg slot per cell id, built on first use
	legSig  *sim.Signal            // broadcast by every finishing leg
	legSQL  string                 // what the legs in flight run ...
	legArgs []sqlengine.Value      // ... with these arguments (the caller's; held for the scatter only)
	legsOut int                    // legs started and not yet finished
	sets    []*sqlengine.ResultSet // the finished legs' sets, in cell order, for the merge
}

// scatterLeg is a connection's standing slot for the scatter legs it sends
// to one cell: the function Env.Go runs, built once, the reply the cell
// answers in and the fields that function reports into. Only the leg's own
// process writes reply, res and err, and the gathering process reads them
// after legsOut has told it the leg is done. The reply's rows belong to the
// slot: the next leg sent to the cell overwrites them, so the merge copies
// out of them and nothing a scatter returns points into them.
type scatterLeg struct {
	c     *Conn
	conn  *proxy.Conn
	run   func(*sim.Proc) // exec, bound to this slot
	reply proxy.Reply
	res   *proxy.ExecResult
	err   error
}

func (l *scatterLeg) exec(lp *sim.Proc) {
	c := l.c
	l.res, l.err = l.conn.ExecInto(lp, &l.reply, c.legSQL, c.legArgs...)
	c.legsOut--
	c.legSig.Broadcast()
}

// scatterResult is a merged scatter's three result headers in one
// allocation, as a cell's own reply is (proxy.Conn.Exec); they are only ever
// handed out together.
type scatterResult struct {
	exec proxy.ExecResult
	eng  sqlengine.Reply
}

// Connect opens a routed connection with the given default database.
func (s *Cluster) Connect(db string) *Conn {
	return &Conn{sc: s, db: db, m: s.m}
}

// leg returns (building if needed) the scatter slot for cell id.
func (c *Conn) leg(id int) *scatterLeg {
	for len(c.legs) <= id {
		c.legs = append(c.legs, nil)
	}
	if c.legs[id] == nil {
		l := &scatterLeg{c: c, conn: c.cellConn(id)}
		l.run = l.exec
		c.legs[id] = l
	}
	return c.legs[id]
}

// cellConn returns (opening if needed) the proxy connection to cell id.
func (c *Conn) cellConn(id int) *proxy.Conn {
	for len(c.conns) <= id {
		c.conns = append(c.conns, nil)
	}
	if c.conns[id] == nil {
		c.conns[id] = c.sc.cells[id].Px.Connect(c.db)
	}
	return c.conns[id]
}

// refresh replaces the connection's map with the cluster's current one.
func (c *Conn) refresh() {
	c.m = c.sc.m
	c.sc.stats.MapRefreshes++
}

// Route-refresh retry shape: the cutover barrier of a split lasts drain +
// final replay + source cleanup, so the backoff budget (~2.3 s total) must
// comfortably exceed the worst barrier we measure (tens of milliseconds).
const maxRouteRetries = 14

func routeBackoff(attempt int) time.Duration {
	d := 5 * time.Millisecond << uint(attempt)
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// Exec routes and executes one statement. Single-key statements go to the
// owning cell; multi-key reads scatter to every slot-owning cell and merge;
// global writes broadcast. A proxy.ErrWrongShard reply (stale map or
// cutover barrier) refreshes the map and retries with backoff.
func (c *Conn) Exec(p *sim.Proc, sql string, args ...sqlengine.Value) (*proxy.ExecResult, error) {
	ri := c.sc.route(sql)
	if ri.err != nil {
		c.sc.stats.Errors++
		return nil, ri.err
	}
	start := p.Now()
	var res *proxy.ExecResult
	var err error
	for attempt := 0; ; attempt++ {
		res, err = c.execOnce(p, ri, sql, args)
		if err == nil || !errors.Is(err, proxy.ErrWrongShard) {
			break
		}
		if attempt >= maxRouteRetries {
			break
		}
		c.sc.stats.WrongShardRetries++
		c.refresh()
		p.Sleep(routeBackoff(attempt))
	}
	if err != nil {
		c.sc.stats.Errors++
		return nil, err
	}
	lat := time.Duration(p.Now() - start)
	res.Latency = lat
	if ri.kind == routeScatter {
		c.sc.hScatter.Record(lat)
	} else {
		c.sc.hSingle.Record(lat)
	}
	return res, nil
}

// execOnce performs one routing attempt.
func (c *Conn) execOnce(p *sim.Proc, ri *routeInfo, sql string, args []sqlengine.Value) (*proxy.ExecResult, error) {
	// Full-coverage routes (scatter, broadcast) cannot rely on the lazy
	// ErrWrongShard path to expose a stale map: a leg to a cell that
	// shrank is still "owned" statement-by-statement, so a scatter routed
	// on a pre-split map would silently miss the new cell's rows. Check
	// the connection's map against the cluster's before fanning out;
	// single-key routes keep the cached map and let the owning cell's
	// ownership check catch staleness.
	if ri.kind == routeScatter || ri.kind == routeBroadcast {
		if c.m != c.sc.m {
			c.refresh()
		}
	}
	switch ri.kind {
	case routeAny:
		c.sc.stats.AnyReads++
		id := int(c.anyN) % len(c.sc.cells)
		c.anyN++
		return c.cellConn(id).Exec(p, sql, args...)
	case routeBroadcast:
		return c.broadcast(p, ri, sql, args)
	case routeScatter:
		return c.scatter(p, ri, sql, args)
	default:
		return c.single(p, ri, sql, args)
	}
}

// single executes on the owning cell per the connection's map, then
// mirrors successful writes on moving keys to the split target.
func (c *Conn) single(p *sim.Proc, ri *routeInfo, sql string, args []sqlengine.Value) (*proxy.ExecResult, error) {
	keys, err := ri.resolveKeys(c.keys, args)
	if err != nil {
		return nil, err
	}
	c.keys = keys
	owner := c.m.Owner(keys[0])
	for _, k := range keys[1:] {
		if c.m.Owner(k) != owner {
			return nil, fmt.Errorf("shard: statement spans cells (keys hash to different owners)")
		}
	}
	c.sc.stats.SingleKey++
	mig, tracked := c.sc.trackKeys(keys)
	res, execErr := c.cellConn(owner).Exec(p, sql, args...)
	if execErr == nil && ri.write {
		c.dualWrite(p, mig, ri, keys, owner, sql, args)
	}
	if tracked {
		mig.leave()
	}
	return res, execErr
}

// dualWrite mirrors a committed write on moving keys to the split target's
// master, inside the client's process so the dual-write latency is paid
// honestly. A duplicate-key reply means the copy already delivered the row;
// any other failure marks the migration failed (the split aborts, the
// source stays authoritative).
func (c *Conn) dualWrite(p *sim.Proc, mig *migration, ri *routeInfo, keys []int64, owner int, sql string, args []sqlengine.Value) {
	if mig == nil || mig.failed || owner != mig.src {
		return
	}
	moving, mixed := mig.covers(c.sc.m, keys)
	if mixed {
		mig.fail(fmt.Errorf("shard: statement mixes moving and non-moving slots during split"))
		return
	}
	if !moving {
		return
	}
	dstSrv := c.sc.cells[mig.dst].Clu.Master().Srv
	if c.dualSess == nil {
		c.dualSess = make(map[*server.DBServer]*sqlengine.Session)
	}
	sess := c.dualSess[dstSrv]
	if sess == nil {
		sess = dstSrv.Session(c.db)
		c.dualSess[dstSrv] = sess
	}
	if _, err := dstSrv.Exec(p, sess, sql, args...); err != nil && !errors.Is(err, sqlengine.ErrDuplicateKey) {
		mig.fail(fmt.Errorf("shard: dual-write to cell %d: %w", mig.dst, err))
		return
	}
	// The dual write bypassed the target cell's proxy, so no session token
	// was minted there. Stamp one by hand: the moment the map flips, this
	// connection's reads on the moved keys route to the target cell, and a
	// read-your-writes read must not be served by a target slave that has
	// not applied the mirrored write yet.
	dstM := c.sc.cells[mig.dst].Clu.Master()
	c.cellConn(mig.dst).SetToken(proxy.Token{Epoch: dstM.Epoch, Seq: dstM.Srv.Log.LastSeq()})
	mig.recordKeys(ri.table, keys)
	mig.dualWrites++
	c.sc.stats.DualWrites++
}

// broadcast runs a statement on every cell in id order (DDL, global-table
// writes). A write broadcast during an active split aborts the split: the
// catch-up replay only repairs single-key writes, so racing a broadcast
// against the copy could strand a stale row on the target.
func (c *Conn) broadcast(p *sim.Proc, ri *routeInfo, sql string, args []sqlengine.Value) (*proxy.ExecResult, error) {
	c.sc.stats.Broadcasts++
	if mig := c.sc.activeMigration(); mig != nil && ri.write {
		mig.fail(fmt.Errorf("shard: broadcast write during split"))
	}
	var last *proxy.ExecResult
	for _, cell := range c.sc.cells {
		res, err := c.cellConn(cell.ID).Exec(p, sql, args...)
		if err != nil {
			return nil, fmt.Errorf("shard: broadcast on cell %d: %w", cell.ID, err)
		}
		last = res
	}
	return last, nil
}

// activeMigration returns the active, not-yet-failed migration, if any.
func (s *Cluster) activeMigration() *migration {
	if s.mig != nil && !s.mig.failed {
		return s.mig
	}
	return nil
}

// trackKeys registers a statement touching moving slots with the active
// migration's in-flight count (the cutover drain waits for it to reach
// zero). Returns the migration and whether leave() must be called.
// Statements arriving during the barrier are not tracked: the ownership
// check rejects them in the same simulation instant, and counting their
// retries as in-flight would let arrivals hold the drain open forever.
func (s *Cluster) trackKeys(keys []int64) (*migration, bool) {
	mig := s.activeMigration()
	if mig == nil || mig.barrier {
		return mig, false
	}
	for _, k := range keys {
		if mig.moving[s.m.SlotOf(k)] {
			mig.enter()
			return mig, true
		}
	}
	return mig, false
}

// scatter fans a multi-key read out to every slot-owning cell, one
// simulation process per leg, and merges the per-cell results in cell
// order. Legs run the statement's sqlengine.Merge's per-cell rewrite (ORDER
// BY columns projected, LIMIT pushed down) out of the connection's standing
// slots, and the same Merge — the engine's own ORDER BY / GROUP BY / LIMIT
// over the legs' rows — combines what they return; a single-target scatter
// short-circuits to the original statement.
func (c *Conn) scatter(p *sim.Proc, ri *routeInfo, sql string, args []sqlengine.Value) (*proxy.ExecResult, error) {
	targets := c.m.Cells()
	mig := c.sc.activeMigration()
	tracked := false
	if mig != nil && !mig.barrier { // barrier arrivals bounce, not drain-tracked
		for _, t := range targets {
			if t == mig.src {
				mig.enter()
				tracked = true
			}
		}
	}
	res, err := c.scatterLegs(p, ri, sql, args, targets)
	if tracked {
		mig.leave()
	}
	return res, err
}

func (c *Conn) scatterLegs(p *sim.Proc, ri *routeInfo, sql string, args []sqlengine.Value, targets []int) (*proxy.ExecResult, error) {
	c.sc.stats.ScatterOps++
	c.sc.stats.ScatterLegs += uint64(len(targets))
	if len(targets) == 1 {
		// Every slot lives on one cell: the original statement is already
		// complete there, no rewrite or merge needed.
		return c.cellConn(targets[0]).Exec(p, sql, args...)
	}
	if c.legSig == nil {
		c.legSig = sim.NewSignal(c.sc.env).Named("shard/scatter")
	}
	c.legSQL, c.legArgs, c.legsOut = ri.plan.CellSQL, args, len(targets)
	// Every leg is a process of its own, even the first: run inline on the
	// caller's process it would reach the cell ahead of events already queued
	// for this instant.
	for _, id := range targets {
		c.sc.env.Go("shard/scatter-leg", c.leg(id).run)
	}
	for c.legsOut > 0 {
		c.legSig.Wait(p)
	}
	c.legArgs = nil
	var firstErr error
	examined := 0
	for _, id := range targets {
		l := c.legs[id]
		switch {
		case firstErr != nil: // a lower cell's leg has already failed the scatter
		case l.err != nil:
			// ErrWrongShard on any leg retries the whole scatter after a
			// refresh; other failures surface as the scatter's error.
			firstErr = l.err
		case l.res.Result != nil && l.res.Result.Set != nil:
			c.sets = append(c.sets, l.res.Result.Set)
			examined += l.res.Result.Stats.RowsExamined
		}
		l.res, l.err = nil, nil
	}
	var out *scatterResult
	if firstErr == nil {
		out = &scatterResult{}
		firstErr = ri.plan.Run(c.sets, &out.eng.Set)
	}
	clear(c.sets)
	c.sets = c.sets[:0]
	if firstErr != nil {
		return nil, firstErr
	}
	res := &out.eng.Result
	res.Set = &out.eng.Set
	res.Stats.RowsExamined = examined
	res.Stats.RowsReturned = len(res.Set.Rows)
	out.exec.Result = res
	return &out.exec, nil
}

// CellThroughput distributes served statements per cell: reads+writes seen
// by each cell proxy. Useful for per-cell throughput reporting.
func (s *Cluster) CellThroughput() []uint64 {
	out := make([]uint64, len(s.cells))
	for i, c := range s.cells {
		ps := c.Px.Stats()
		out[i] = ps.Reads + ps.Writes
	}
	return out
}

// RowCount scans every cell's master for the total row count of a sharded
// table (free reads — validation only, no simulated cost). Each row is
// counted once per owning cell; duplicates across cells inflate the total,
// lost rows deflate it, which is exactly what the split chaos test checks.
func (s *Cluster) RowCount(table string) (int, error) {
	total := 0
	for _, cell := range s.cells {
		srv := cell.Clu.Master().Srv
		sess := srv.Session(s.cfg.Database)
		res, err := srv.ExecFree(sess, "SELECT COUNT(*) AS n FROM "+table)
		if err != nil {
			return 0, fmt.Errorf("shard: count %s on cell %d: %w", table, cell.ID, err)
		}
		if res.Set != nil && len(res.Set.Rows) == 1 {
			total += int(res.Set.Rows[0][0].Int())
		}
	}
	return total, nil
}

// Keys scans every cell's master and returns each cell's key set for a
// sharded table (free reads — validation only).
func (s *Cluster) Keys(table string) ([]map[int64]int, error) {
	kc, ok := s.ks.keyColumn(strings.ToLower(table))
	if !ok {
		return nil, fmt.Errorf("shard: %s is not sharded", table)
	}
	out := make([]map[int64]int, len(s.cells))
	for i, cell := range s.cells {
		srv := cell.Clu.Master().Srv
		sess := srv.Session(s.cfg.Database)
		res, err := srv.ExecFree(sess, fmt.Sprintf("SELECT %s FROM %s", kc, table))
		if err != nil {
			return nil, fmt.Errorf("shard: scan %s on cell %d: %w", table, cell.ID, err)
		}
		m := make(map[int64]int)
		if res.Set != nil {
			for _, r := range res.Set.Rows {
				m[r[0].Int()]++
			}
		}
		out[i] = m
	}
	return out, nil
}

// sortedKeys returns a deterministic ordering of a key set.
func sortedKeys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
