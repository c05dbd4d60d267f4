package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"cloudrepl/internal/binlog"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/core"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// The traced pass attributes a workload to layers in both currencies.
//
// The virtual ledger runs the cell once more with the repo's tracer on and
// splits each statement's virtual latency by stage; a stage's self time is
// its span minus the spans it encloses on the same process.
//
// The host ledger replays the head of the workload's own page stream
// serially, one simulation process per seam from the outermost
// (core.DB.Exec) to the innermost (sqlengine.Parse), every seam that changes
// data on a freshly assembled cell of its own. Every call is one span of the
// benchmark's own recorder; a layer's self time is its seam's cost per page
// minus the next-inner seam's.

// virtualLedger turns the traced rep's spans into per-stage virtual costs.
func virtualLedger(tr, base *rep, out map[string]float64) {
	type agg struct{ self, total time.Duration }
	byID := make(map[uint64]*obs.Span, len(tr.spans))
	for _, sp := range tr.spans {
		byID[sp.ID] = sp
	}
	// A child on another process (a ship or apply span linked to the write
	// that caused it, a scatter leg) runs beside its parent, not inside it.
	enclosed := make(map[uint64]time.Duration, len(tr.spans))
	for _, sp := range tr.spans {
		if parent := byID[sp.Parent]; parent != nil && parent.ProcID == sp.ProcID {
			enclosed[parent.ID] += sp.Dur
		}
	}
	sums := map[string]*agg{}
	parsed := make([]obs.ParsedSpan, 0, len(tr.spans))
	for _, sp := range tr.spans {
		key := sp.Stage + "." + sp.Name
		a := sums[key]
		if a == nil {
			a = &agg{}
			sums[key] = a
		}
		a.total += sp.Dur
		a.self += sp.Dur - enclosed[sp.ID]
		parsed = append(parsed, obs.ParsedSpan{
			Name: sp.Name, Stage: sp.Stage, TID: sp.ProcID,
			TSUs: float64(sp.Start) / 1e3, DurUs: float64(sp.Dur) / 1e3,
			Trace: sp.Trace, ID: sp.ID, Parent: sp.Parent,
		})
	}
	get := func(key string) agg {
		if a := sums[key]; a != nil {
			return *a
		}
		return agg{}
	}
	stage := map[string]obs.StageStat{}
	for _, st := range obs.StageStats(parsed) {
		stage[st.Stage] = st
	}

	ops := float64(tr.completed)
	out["core.client_vms_per_op"] = ms(get("client.exec").self) / ops
	out["pool.borrow_vms_per_op"] = ms(get("pool.borrow").total) / ops
	out["proxy.route_vms_per_op"] = ms(get("proxy.route").self) / ops
	out["cloud.transit_vms_per_op"] = ms(get("proxy.attempt").self) / ops
	out["server.wait_vms_per_op"] = (ms(get("server.exec").total) - tr.busyMs) / ops
	out["server.exec_vms_p95"] = stage["server"].P95Ms
	out["repl.ship_vms_per_batch"] = stage["binlog"].MeanMs
	out["repl.apply_vms_mean"] = stage["apply"].MeanMs
	out["repl.apply_vms_p95"] = stage["apply"].P95Ms
	out["obs.spans_per_op"] = float64(len(tr.spans)) / ops
	out["obs.trace_wall_overhead_share"] = tr.host["host.wall_us_per_op"]/base.host["host.wall_us_per_op"] - 1
}

// hostSpan is one recorded call: what was called, under which pass, and its
// start and end on both clocks plus the kernel's event counter.
type hostSpan struct {
	id, parent   int
	page         int // which replayed page the call belongs to
	name         string
	start, end   time.Duration // host
	vStart, vEnd sim.Time
	evStart      uint64 // kernel events dispatched so far
	evEnd        uint64
}

// recorder keeps every span in memory; nothing is written until the run ends.
type recorder struct {
	workload string
	page     int // the page being replayed; stamped on every span begun
	spans    []hostSpan
}

func (rc *recorder) begin(env *sim.Env, parent int, name string) int {
	id := len(rc.spans) + 1
	rc.spans = append(rc.spans, hostSpan{id: id, parent: parent, page: rc.page, name: name,
		vStart: env.Now(), evStart: env.Events(), start: hostNow()})
	return id
}

func (rc *recorder) end(env *sim.Env, id int) {
	sp := &rc.spans[id-1]
	sp.end = hostNow()
	sp.vEnd, sp.evEnd = env.Now(), env.Events()
}

// drop forgets the newest span (a call that turned out not to be the one
// being measured).
func (rc *recorder) drop(id int) { rc.spans = rc.spans[:id-1] }

// callStat summarises the spans of one name: each call's host cost, the
// same cost summed page by page (so that two seams can be compared on the
// same page), and the kernel events dispatched inside the spans.
type callStat struct {
	perCall []float64 // host ns
	perPage []float64 // host ns, indexed by page
	events  uint64
}

// trim is the share cut from each end before averaging host costs: a GC
// cycle or a descheduled thread lands in a few spans and would otherwise
// swamp a layer whose self time is a microsecond.
const trim = 0.05

// callNs is the trimmed mean cost of one call.
func (cs *callStat) callNs() float64 { return metrics.TrimmedMean(cs.perCall, trim) }

// pageNs is the trimmed mean cost per replayed page.
func (cs *callStat) pageNs() float64 { return metrics.TrimmedMean(cs.perPage, trim) }

// eventsPerCall is the mean number of kernel events dispatched inside a call.
func (cs *callStat) eventsPerCall() float64 {
	return ratio(float64(cs.events), float64(len(cs.perCall)))
}

// over is the trimmed mean, page by page, of this seam's cost minus the
// inner seams': the layer's self time.
func (cs *callStat) over(inner ...*callStat) float64 {
	diff := append([]float64(nil), cs.perPage...)
	for _, in := range inner {
		for i, ns := range in.perPage {
			diff[i] -= ns
		}
	}
	return metrics.TrimmedMean(diff, trim)
}

func (rc *recorder) stats(pages int) map[string]*callStat {
	out := map[string]*callStat{}
	for _, sp := range rc.spans {
		if sp.parent == 0 {
			continue // pass envelopes
		}
		cs := out[sp.name]
		if cs == nil {
			cs = &callStat{perPage: make([]float64, pages)}
			out[sp.name] = cs
		}
		ns := float64((sp.end - sp.start).Nanoseconds())
		cs.perCall = append(cs.perCall, ns)
		cs.perPage[sp.page] += ns
		cs.events += sp.evEnd - sp.evStart
	}
	return out
}

// write dumps the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one complete event per span on the host timeline, one thread
// per pass, ids, parents and the virtual interval in args.
func (rc *recorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]event, 0, len(rc.spans))
	for _, sp := range rc.spans {
		tid := sp.parent
		if tid == 0 {
			tid = sp.id
		}
		events = append(events, event{
			Name: sp.name, Cat: rc.workload, Ph: "X", TS: us(sp.start), Dur: us(sp.end - sp.start), PID: 1, TID: tid,
			Args: map[string]any{
				"id": sp.id, "parent": sp.parent,
				"virtual_start_us": us(sp.vStart), "virtual_end_us": us(sp.vEnd),
				"kernel_events": sp.evEnd - sp.evStart,
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

// stmt is one statement of the replayed stream.
type stmt struct {
	sql  string
	args []sqlengine.Value
	read bool
	cell int // which shard cell serves it (0 on an unsharded workload)
}

// slot is one page's turn in the replay. The outermost seam runs the page
// and flattens it into statements; the inner seams, which see no pages,
// replay those statements; the engine seam leaves the binlog entries the
// replication seam applies.
type slot struct {
	page    *page
	stmts   []stmt
	entries []binlog.Entry
}

// seamCall replays one slot through a seam; parent is the id of the seam's
// envelope span.
type seamCall func(p *sim.Proc, parent int, sl *slot) error

// seam is one pass of the host ledger: the cell it runs on and the call into
// that cell which the pass measures.
type seam struct {
	name string
	c    *cell
	call seamCall
}

// slotLen spaces the replayed pages on every seam's virtual timeline. A page
// runs in the first half of its slot; the replication it set off lands in
// the rest, outside any span.
const slotLen = 8 * time.Second

// interleave replays pages through every seam, page by page: page i runs on
// the first seam's cell, then the second's, and so on, before page i+1 runs
// anywhere. A seam's cost and the next-inner seam's are therefore measured
// microseconds apart on the same statement, and host noise cancels in their
// difference.
func (rc *recorder) interleave(seams []*seam, pages []page) error {
	var sl slot
	var failed error
	for _, sm := range seams {
		env := sm.c.env
		env.Go("bench/replay/"+sm.name, func(p *sim.Proc) {
			parent := rc.begin(env, 0, "pass:"+sm.name)
			for i := 0; i < len(pages) && failed == nil; i++ {
				p.SleepUntil(sim.Time(i+1) * slotLen)
				if err := sm.call(p, parent, &sl); err != nil {
					failed = fmt.Errorf("%s: ledger seam %s, page %d (%s): %w", rc.workload, sm.name, i, pages[i].name, err)
				}
			}
			rc.end(env, parent)
		})
	}
	for i := range pages {
		rc.page = i
		sl = slot{page: &pages[i]}
		for _, sm := range seams {
			sm.c.env.RunUntil(sim.Time(i+1)*slotLen + slotLen/2)
			if failed != nil {
				return failed
			}
		}
	}
	return nil
}

// pageStream is the workload's own page stream in a program-independent
// order: page k is user k mod Users' next page.
func pageStream(w *workload, seed int64, n int) []page {
	users := make([]*user, w.Users)
	for i := range users {
		users[i] = newUser(seed, i, w)
	}
	pages := make([]page, n)
	for k := range pages {
		pages[k] = users[k%len(users)].nextPage()
	}
	return pages
}

// ledgerRun is one workload's host ledger in the making.
type ledgerRun struct {
	*recorder
	w                       *workload
	readAllocs, writeAllocs tally // engine-allocs seam, by statement class
	entries                 int   // binlog entries the replication seam was fed
}

// tally counts heap objects allocated over a number of calls.
type tally struct{ calls, objects uint64 }

func (t tally) perCall() float64 { return ratio(float64(t.objects), float64(t.calls)) }

// timed wraps one call into c in a span.
func (rc *recorder) timed(c *cell, parent int, name string, call func() error) error {
	id := rc.begin(c.env, parent, name)
	err := call()
	rc.end(c.env, id)
	return err
}

// hostLedger replays the first n pages of the workload's stream through
// every seam, fills the *_wall_ns and *_allocs metrics and writes the spans.
func hostLedger(w *workload, seed int64, n int, base *rep, out map[string]float64, tracePath string) error {
	lr := &ledgerRun{recorder: &recorder{workload: w.Name}, w: w}
	pages := pageStream(w, seed, n)

	// Outermost first. A seam that leaves its cell's data alone shares the
	// cell of the seam before it; every other seam gets a fresh, quiet cell.
	builders := []struct {
		name   string
		shares bool
		build  func(*cell) (seamCall, error)
	}{
		{"core", false, lr.coreSeam},
		{"shard", false, lr.shardSeam},
		{"proxy", false, lr.proxySeam},
		{"server", false, lr.serverSeam},
		{"engine", false, lr.engineSeam},
		{"engine-allocs", false, lr.allocSeam},
		{"plan", false, lr.planSeam},
		{"replication", true, lr.replicationSeam},
		{"kernel", true, lr.kernelSeam},
	}
	var seams []*seam
	defer func() {
		for _, sm := range seams {
			sm.c.close()
		}
	}()
	for _, b := range builders {
		if b.name == "shard" && w.Cells == 1 {
			continue
		}
		var c *cell
		if b.shares {
			c = seams[len(seams)-1].c
		} else {
			fresh, err := openCell(w, seed, false)
			if err != nil {
				return err
			}
			fresh.stopNTP()
			c = fresh
		}
		call, err := b.build(c)
		seams = append(seams, &seam{name: b.name, c: c, call: call})
		if err != nil {
			return fmt.Errorf("%s: ledger seam %s: %w", w.Name, b.name, err)
		}
	}
	if err := lr.interleave(seams, pages); err != nil {
		return err
	}
	lr.kernelLoop()
	lr.fill(out, base, len(pages))
	return lr.write(tracePath)
}

// coreSeam is the outermost seam: whole pages through the application
// handle. It also flattens each page into the statements the inner seams
// replay.
func (lr *ledgerRun) coreSeam(c *cell) (seamCall, error) {
	return func(p *sim.Proc, parent int, sl *slot) error {
		_, err := sl.page.run(func(sql string, args []sqlengine.Value) (res *sqlengine.Result, err error) {
			err = lr.timed(c, parent, "core.exec", func() error {
				r, err := c.db.Exec(p, sql, args...)
				if err == nil {
					res = r.Result
				}
				return err
			})
			sl.stmts = append(sl.stmts, stmt{sql: sql, args: args, read: sl.page.read})
			return res, err
		})
		return err
	}, nil
}

// shardSeam is the shard router (sharded workloads only).
func (lr *ledgerRun) shardSeam(c *cell) (seamCall, error) {
	conn := c.db.Shards().Connect(cloudstone.DatabaseName)
	return func(p *sim.Proc, parent int, sl *slot) error {
		for _, s := range sl.stmts {
			err := lr.timed(c, parent, "shard.exec", func() error {
				_, err := conn.Exec(p, s.sql, s.args...)
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// proxySeam is the read/write-splitting proxy. On a sharded workload the
// owning cell is the one whose proxy does not refuse the statement; a
// statement with no single owner (a scatter) replays on cell 0.
func (lr *ledgerRun) proxySeam(c *cell) (seamCall, error) {
	conns := c.proxyConns()
	return func(p *sim.Proc, parent int, sl *slot) error {
		for i := range sl.stmts {
			s := &sl.stmts[i]
			for k, conn := range conns {
				id := lr.begin(c.env, parent, "proxy.exec")
				_, err := conn.Exec(p, s.sql, s.args...)
				lr.end(c.env, id)
				if errors.Is(err, proxy.ErrWrongShard) && k+1 < len(conns) {
					lr.drop(id)
					continue
				}
				if err != nil {
					return err
				}
				s.cell = k
				break
			}
		}
		return nil
	}, nil
}

// serverSeam is the database server: writes on the owning master, reads on
// its first slave.
func (lr *ledgerRun) serverSeam(c *cell) (seamCall, error) {
	be := c.backends()
	return func(p *sim.Proc, parent int, sl *slot) error {
		for i := range sl.stmts {
			s := &sl.stmts[i]
			b := be.pick(s)
			err := lr.timed(c, parent, "server.exec", func() error {
				_, err := b.srv.Exec(p, b.sess, s.sql, s.args...)
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// engineSeam is the SQL engine: prepare, then run. What its masters log
// feeds the replication seam.
func (lr *ledgerRun) engineSeam(c *cell) (seamCall, error) {
	be := c.backends()
	logged := c.binlogSeqs()
	return func(p *sim.Proc, parent int, sl *slot) error {
		for i := range sl.stmts {
			s := &sl.stmts[i]
			b := be.pick(s)
			var st *sqlengine.Statement
			err := lr.timed(c, parent, "sqlengine.prepare", func() (err error) {
				st, err = b.srv.Eng.Prepare(s.sql)
				return err
			})
			if err != nil {
				return err
			}
			name := "sqlengine.run_write"
			if s.read {
				name = "sqlengine.run_read"
			}
			err = lr.timed(c, parent, name, func() error {
				_, err := st.Run(b.sess, s.args...)
				return err
			})
			if err != nil {
				return err
			}
		}
		for i, m := range c.masters {
			for ; logged[i] < m.Srv.Log.LastSeq(); logged[i]++ {
				e, err := m.Srv.Log.At(logged[i] + 1)
				if err != nil {
					return err
				}
				sl.entries = append(sl.entries, e)
			}
		}
		return nil
	}, nil
}

// allocSeam is the engine seam again, bracketed by allocator reads instead
// of clock reads (reading the allocator stops the world, so it never happens
// inside a span).
func (lr *ledgerRun) allocSeam(c *cell) (seamCall, error) {
	be := c.backends()
	return func(p *sim.Proc, parent int, sl *slot) error {
		for i := range sl.stmts {
			s := &sl.stmts[i]
			b := be.pick(s)
			before := mallocs()
			st, err := b.srv.Eng.Prepare(s.sql)
			if err == nil {
				_, err = st.Run(b.sess, s.args...)
			}
			if err != nil {
				return err
			}
			a := &lr.writeAllocs
			if s.read {
				a = &lr.readAllocs
			}
			a.calls++
			a.objects += mallocs() - before
		}
		return nil
	}, nil
}

// planSeam is the planner and the parser on their own. Nothing executes, so
// the cell's data never moves.
func (lr *ledgerRun) planSeam(c *cell) (seamCall, error) {
	be := c.backends()
	return func(p *sim.Proc, parent int, sl *slot) error {
		for i := range sl.stmts {
			s := &sl.stmts[i]
			if s.read {
				b := be.pick(s)
				st, err := b.srv.Eng.Prepare(s.sql)
				if err != nil {
					return err
				}
				err = lr.timed(c, parent, "sqlengine.plan", func() error {
					_, err := st.Plan(b.sess)
					return err
				})
				if err != nil {
					return err
				}
			}
			err := lr.timed(c, parent, "sqlengine.parse", func() error {
				_, err := sqlengine.Parse(s.sql)
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// replicationSeam is the write path behind the master: the binlog entries
// the engine seam's masters logged go through Log.Append and the wire format,
// and are re-executed the way a slave's SQL thread does, on a standalone
// server preloaded with every cell's rows.
func (lr *ledgerRun) replicationSeam(c *cell) (seamCall, error) {
	log := binlog.New(c.env)
	inst := c.cloud.Launch("ledger/applier", cloud.Small, usWest1a)
	srv := server.New(c.env, inst.Name, inst, costModel)
	preloadErr := cloudstone.Preload(lr.w.Scale)(srv)
	sess := srv.Session("")
	return func(p *sim.Proc, parent int, sl *slot) error {
		if len(sl.entries) == 0 {
			return nil
		}
		lr.entries += len(sl.entries)
		for _, e := range sl.entries {
			_ = lr.timed(c, parent, "binlog.append", func() error {
				log.Append(e.Database, e.SQL, e.TimestampMicros)
				return nil
			})
		}
		var wire []byte
		_ = lr.timed(c, parent, "binlog.encode_batch", func() error {
			wire = binlog.EncodeBatch(sl.entries)
			return nil
		})
		err := lr.timed(c, parent, "binlog.decode_batch", func() error {
			_, err := binlog.DecodeBatch(wire)
			return err
		})
		if err != nil {
			return err
		}
		for _, e := range sl.entries {
			err := lr.timed(c, parent, "repl.apply", func() error { return srv.Apply(p, sess, e) })
			if err != nil {
				return err
			}
		}
		return nil
	}, preloadErr
}

// kernelSeam is what sits under every layer: a pool checkout and one network
// datagram from send to delivery (it lands while the process sleeps out its
// slot).
func (lr *ledgerRun) kernelSeam(c *cell) (seamCall, error) {
	pl, net := c.db.Pool(), c.cloud.Network()
	return func(p *sim.Proc, parent int, sl *slot) error {
		var conn core.Conn
		err := lr.timed(c, parent, "pool.borrow", func() (err error) {
			conn, err = pl.Borrow(p)
			return err
		})
		if err != nil {
			return err
		}
		_ = lr.timed(c, parent, "pool.return", func() error {
			pl.Return(conn)
			return nil
		})
		id := lr.begin(c.env, parent, "cloud.unicast")
		cloud.Unicast(net, usWest1a, lr.w.SlaveAt, func() { lr.end(c.env, id) })
		return nil
	}, nil
}

// fill turns the recorded spans into the host-ledger metrics.
func (lr *ledgerRun) fill(out map[string]float64, base *rep, pages int) {
	st := lr.stats(pages)
	get := func(name string) *callStat {
		if cs := st[name]; cs != nil {
			return cs
		}
		return &callStat{perPage: make([]float64, pages)}
	}
	coreSeam, proxySeam, serverSeam := get("core.exec"), get("proxy.exec"), get("server.exec")
	inner := proxySeam
	out["shard.self_wall_ns_per_op"] = 0
	if lr.w.Cells > 1 {
		inner = get("shard.exec")
		out["shard.self_wall_ns_per_op"] = inner.over(proxySeam)
	}
	out["core.self_wall_ns_per_op"] = coreSeam.over(inner)
	out["proxy.self_wall_ns_per_op"] = proxySeam.over(serverSeam)
	out["server.self_wall_ns_per_op"] = serverSeam.over(get("sqlengine.prepare"), get("sqlengine.run_read"), get("sqlengine.run_write"))
	out["pool.self_wall_ns_per_op"] = get("pool.borrow").callNs() + get("pool.return").callNs()
	out["sqlengine.prepare_wall_ns"] = get("sqlengine.prepare").callNs()
	out["sqlengine.run_read_wall_ns"] = get("sqlengine.run_read").callNs()
	out["sqlengine.run_write_wall_ns"] = get("sqlengine.run_write").callNs()
	out["sqlengine.run_read_allocs"] = lr.readAllocs.perCall()
	out["sqlengine.run_write_allocs"] = lr.writeAllocs.perCall()
	out["sqlengine.plan_wall_ns"] = get("sqlengine.plan").callNs()
	out["sqlengine.parse_wall_ns"] = get("sqlengine.parse").callNs()
	out["binlog.append_wall_ns"] = get("binlog.append").callNs()
	perBatch := ratio(float64(lr.entries), float64(len(get("binlog.encode_batch").perCall)))
	out["binlog.encode_wall_ns_per_entry"] = ratio(get("binlog.encode_batch").callNs(), perBatch)
	out["binlog.decode_wall_ns_per_entry"] = ratio(get("binlog.decode_batch").callNs(), perBatch)
	out["repl.apply_wall_ns_per_event"] = get("repl.apply").callNs()
	out["cloud.transit_wall_ns"] = get("cloud.unicast").callNs()
	loop := get("sim.loop")
	out["sim.dispatch_wall_ns"] = ratio(loop.callNs(), float64(loop.events))

	// Coverage: what the ledger's prices say the timed rep should have cost.
	// Pages are priced at the outermost seam (the nested self times telescope
	// to it), applied events at the apply seam, and every kernel event neither
	// of those accounts for at the pure dispatch price.
	apply := get("repl.apply")
	priced := float64(base.completed)*coreSeam.pageNs() + float64(base.applied)*apply.callNs()
	accounted := float64(base.completed)*float64(coreSeam.events)/float64(pages) +
		float64(base.applied)*apply.eventsPerCall()
	priced += max(float64(base.events)-accounted, 0) * out["sim.dispatch_wall_ns"]
	out["ledger.coverage_share"] = priced / float64(base.wall.Nanoseconds())
}

// proxyConns opens one proxy connection per shard cell (one in all on an
// unsharded workload).
func (c *cell) proxyConns() []*proxy.Conn {
	if sc := c.db.Shards(); sc != nil {
		var out []*proxy.Conn
		for _, cl := range sc.Cells() {
			out = append(out, cl.Px.Connect(cloudstone.DatabaseName))
		}
		return out
	}
	return []*proxy.Conn{c.db.Proxy().Connect(cloudstone.DatabaseName)}
}

// backend is a server with an open session on the application database.
type backend struct {
	srv  *server.DBServer
	sess *sqlengine.Session
}

// backends holds, per shard cell, the master and the first slave.
type backends struct{ masters, slaves []backend }

func (c *cell) backends() backends {
	var b backends
	open := func(srv *server.DBServer) backend {
		return backend{srv, srv.Session(cloudstone.DatabaseName)}
	}
	for _, m := range c.masters {
		b.masters = append(b.masters, open(m.Srv))
		b.slaves = append(b.slaves, open(m.Slaves()[0].Srv))
	}
	return b
}

func (b backends) pick(s *stmt) backend {
	if s.read {
		return b.slaves[s.cell]
	}
	return b.masters[s.cell]
}

func (c *cell) binlogSeqs() []uint64 {
	out := make([]uint64, len(c.masters))
	for i, m := range c.masters {
		out[i] = m.Srv.Log.LastSeq()
	}
	return out
}

// kernelPing is a message that re-sends itself until the loop's horizon.
type kernelPing struct {
	env *sim.Env
	hop time.Duration
}

func (k *kernelPing) Deliver() { k.env.ScheduleDeliver(k.hop, k) }

// kernelLoop prices the kernel's own dispatch loop with nothing on top:
// timers, signal waits that mostly cancel their timeout, broadcasts and
// self-rescheduling message delivery, for ten virtual seconds.
func (rc *recorder) kernelLoop() {
	env := sim.NewEnv(1)
	sig := sim.NewSignal(env).Named("bench/loop")
	for i := 0; i < 64; i++ {
		env.Go("bench/loop", func(p *sim.Proc) {
			for j := 0; ; j++ {
				p.Sleep(time.Duration(1+(i+j)%7) * time.Millisecond)
				if (i+j)%4 == 0 {
					sig.Broadcast()
				} else {
					sig.WaitTimeout(p, 50*time.Millisecond)
				}
			}
		})
	}
	for i := 0; i < 16; i++ {
		ping := &kernelPing{env: env, hop: time.Duration(1+i) * 500 * time.Microsecond}
		env.ScheduleDeliver(ping.hop, ping)
	}
	parent := rc.begin(env, 0, "pass:sim")
	id := rc.begin(env, parent, "sim.loop")
	env.RunUntil(10 * time.Second)
	rc.end(env, id)
	rc.end(env, parent)
	env.Stop()
	env.Shutdown()
}
