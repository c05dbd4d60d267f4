package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// rep is everything one run of a workload's protocol measured. Virtual
// numbers are a pure function of (workload, protocol, seed) and must repeat
// to the last digit; host numbers are what this machine paid to produce them.
type rep struct {
	virtual map[string]float64
	host    map[string]float64

	attempted, failed int // pages, any phase
	completed         int // pages acknowledged and correct, any phase
	readSamples       int // steady-window latency samples
	writeSamples      int
	delaySamples      int      // pooled heartbeat delays
	violations        []string // correctness checks that did not hold

	// Inputs of the traced pass.
	wall    time.Duration // host time of the run, set-up excluded
	events  uint64        // kernel events dispatched
	applied uint64        // binlog events applied, summed over slaves
	busyMs  float64       // virtual CPU the cost model charged the rep's statements
	spans   []*obs.Span   // nil unless traced
}

// load is the closed-loop generator's shared tally. The simulation runs one
// process at a time, so plain fields need no locking.
type load struct {
	c                    *cell
	steadyFrom, steadyTo sim.Time
	end                  sim.Time

	attempted, completed, failed int
	firstErr                     error
	created                      int // acknowledged create-event pages

	readMs, writeMs []float64 // steady-window latencies, virtual ms

	// Per-class sums over every completed page, any phase.
	reads, writes                 int
	stmts, indexed                int
	examinedR, examinedW, returnR int
	busyR, busyW                  time.Duration
}

func (l *load) start(seed int64, pr protocol) {
	w := l.c.w
	begin := l.c.env.Now()
	l.steadyFrom = begin + pr.RampUp
	l.steadyTo = l.steadyFrom + pr.Steady
	l.end = l.steadyTo + pr.RampDown
	for i := 0; i < w.Users; i++ {
		u := newUser(seed, i, w)
		arrive := begin + time.Duration(int64(pr.RampUp)*int64(i)/int64(w.Users))
		l.c.env.Go("bench/user"+strconv.Itoa(i), func(p *sim.Proc) {
			p.SleepUntil(arrive)
			for p.Now() < l.end {
				l.onePage(p, u)
				p.Sleep(u.think())
			}
		})
	}
}

func (l *load) onePage(p *sim.Proc, u *user) {
	pg := u.nextPage()
	t0 := p.Now()
	st, err := pg.run(func(sql string, args []sqlengine.Value) (*sqlengine.Result, error) {
		res, err := l.c.db.Exec(p, sql, args...)
		if err != nil {
			return nil, err
		}
		return res.Result, nil
	})
	now := p.Now()
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("page %s at %v: %w", pg.name, t0, err)
		}
		return
	}
	l.completed++
	l.stmts += st.stmts
	l.indexed += st.indexed
	if pg.read {
		l.reads++
		l.examinedR += st.examined
		l.returnR += st.returned
		l.busyR += st.busy
	} else {
		l.writes++
		l.examinedW += st.examined
		l.busyW += st.busy
		if pg.name == pageCreateEvent {
			l.created++
		}
	}
	if now >= l.steadyFrom && now < l.steadyTo {
		ms := float64(now-t0) / float64(time.Millisecond)
		if pg.read {
			l.readMs = append(l.readMs, ms)
		} else {
			l.writeMs = append(l.writeMs, ms)
		}
	}
}

// assemble builds the workload's cell and everything that must exist before
// the first simulated page: heartbeat plugins and the emulated users. Its
// host time is the benchmark's set-up time.
func assemble(w *workload, pr protocol, seed int64, traced bool) (*cell, *load, error) {
	c, err := openCell(w, seed, traced)
	if err != nil {
		return nil, nil, err
	}
	c.startHeartbeats()
	l := &load{c: c}
	l.start(seed, pr)
	return c, l, nil
}

// runRep assembles the workload's cell, drives it through the protocol and
// collects both currencies. With traced set the whole data path records
// spans on the virtual timeline (the virtual ledger's input).
func runRep(w *workload, pr protocol, seed int64, traced bool) (*rep, error) {
	h0 := readHost()
	c, l, err := assemble(w, pr, seed, traced)
	if err != nil {
		return nil, err
	}
	defer c.close()
	base := c.binlogMark()
	h1 := readHost()

	// Steady-window accounting on the virtual timeline.
	var win window
	c.env.Schedule(l.steadyFrom-c.env.Now(), func() {
		for _, inst := range c.cloud.Instances() {
			inst.CPU.ResetStats()
		}
	})
	c.env.Schedule(l.steadyTo-c.env.Now(), func() {
		for _, m := range c.masters {
			win.masterUtil = max(win.masterUtil, m.Srv.Inst.Utilization())
		}
		for _, sl := range c.slaves() {
			win.slaveUtil = max(win.slaveUtil, sl.Srv.Inst.Utilization())
			win.backlogEnd = max(win.backlogEnd, sl.EventsBehindMaster())
		}
	})
	c.env.Go("bench/sampler", func(p *sim.Proc) {
		for {
			for _, sl := range c.slaves() {
				win.relayMax = max(win.relayMax, sl.RelayBacklog())
			}
			p.Sleep(15 * time.Second)
		}
	})

	c.env.RunUntil(c.env.Now() + pr.total())
	for _, hb := range c.beats {
		hb.Stop()
	}
	c.env.RunUntil(c.env.Now() + pr.Grace)
	h2 := readHost()

	if l.completed == 0 || len(l.readMs) == 0 || len(l.writeMs) == 0 {
		return nil, fmt.Errorf("%s: no completed pages in the steady window (first error: %v)", w.Name, l.firstErr)
	}
	r := &rep{
		virtual:      map[string]float64{},
		host:         map[string]float64{},
		attempted:    l.attempted,
		failed:       l.failed,
		completed:    l.completed,
		readSamples:  len(l.readMs),
		writeSamples: len(l.writeMs),
		wall:         h2.wall - h1.wall,
		events:       c.env.Events(),
		spans:        c.tracer.Spans(),
	}
	if l.firstErr != nil {
		r.violations = append(r.violations, l.firstErr.Error())
	}

	v := r.virtual
	v["ops_per_vsec"] = float64(len(l.readMs)+len(l.writeMs)) / pr.Steady.Seconds()
	for _, class := range []struct {
		name string
		ms   []float64
	}{{"read", l.readMs}, {"write", l.writeMs}} {
		sum := metrics.Summarize(class.ms)
		v[class.name+"_latency_p50_vms"] = sum.Median
		v[class.name+"_latency_mean_vms"] = sum.Mean
		v["core."+class.name+"_latency_p95_vms"] = sum.P95
		v["core."+class.name+"_latency_p99_vms"] = sum.P99
	}
	if err := c.delays(l, r); err != nil {
		return nil, err
	}
	c.layerCounts(l, r, win, base)
	c.check(l, r)

	ops := float64(l.completed)
	hm := r.host
	hm["setup_s"] = (h1.wall - h0.wall).Seconds()
	hm["allocs_per_op"] = float64(h2.mallocs-h1.mallocs) / ops
	hm["sim.wall_ns_per_event"] = float64(r.wall.Nanoseconds()) / float64(r.events)
	hm["host.wall_us_per_op"] = float64(r.wall.Microseconds()) / ops
	hm["host.cpu_us_per_op"] = float64((h2.cpu - h1.cpu).Microseconds()) / ops
	hm["host.alloc_kb_per_op"] = float64(h2.bytes-h1.bytes) / 1024 / ops
	hm["host.gc_cycles"] = float64(h2.gcCycles - h1.gcCycles)
	hm["host.gc_pause_ms_total"] = ms(h2.gcPause - h1.gcPause)
	hm["host.heap_sys_mb"] = h2.heapSysMB
	hm["host.vsec_per_wall_s"] = (pr.total() + pr.Grace).Seconds() / r.wall.Seconds()
	return r, nil
}

// window is what the steady window's two scheduled readings and the
// 15-virtual-second sampler saw.
type window struct {
	masterUtil, slaveUtil float64 // busiest master, busiest slave
	backlogEnd            uint64  // most events behind its master at steady end
	relayMax              int     // deepest relay log at any sample
}

// layerCounts fills the per-layer counts and virtual times a rep can read
// from outside: the layers' public Stats, the instances' utilisation, the
// binlogs' growth since base and the ExecStats every reply carried.
func (c *cell) layerCounts(l *load, r *rep, win window, base logMark) {
	v := r.virtual
	v["sim.events_per_op"] = float64(r.events) / float64(l.completed)
	v["cloud.master_cpu_util"] = win.masterUtil
	v["cloud.slave_cpu_util_max"] = win.slaveUtil

	st := c.db.Stats()
	px, pl := st.Proxy, st.Pool
	routed := float64(px.Reads + px.Writes)
	v["pool.wait_share"] = ratio(float64(pl.Waits), float64(pl.Borrows))
	v["proxy.attempts_per_stmt"] = ratio(routed+float64(px.Retries), routed)
	v["proxy.reads_at_master_share"] = ratio(float64(px.MasterFallbacks), float64(px.Reads))

	// A scatter's merged reply carries one statement's stats; its other legs
	// each paid the read base cost on their own cell.
	sh := st.Shard
	extraLegs := time.Duration(sh.ScatterLegs-sh.ScatterOps) * costModel.ReadBase
	speed := c.masters[0].Srv.Inst.EffectiveSpeed()
	v["server.busy_vms_per_read"] = ms(l.busyR+extraLegs) / speed / float64(l.reads)
	v["server.busy_vms_per_write"] = ms(l.busyW) / speed / float64(l.writes)
	r.busyMs = ms(l.busyR+l.busyW+extraLegs) / speed
	v["sqlengine.rows_examined_per_read"] = float64(l.examinedR) / float64(l.reads)
	v["sqlengine.rows_examined_per_write"] = float64(l.examinedW) / float64(l.writes)
	v["sqlengine.rows_returned_per_read"] = float64(l.returnR) / float64(l.reads)
	v["sqlengine.index_used_share"] = float64(l.indexed) / float64(l.stmts)
	var gcRuns, gcVersions uint64
	for _, m := range c.masters {
		runs, versions, _ := m.Srv.Eng.GCStats()
		gcRuns, gcVersions = gcRuns+runs, gcVersions+versions
	}
	applyErrors := 0
	for _, sl := range c.slaves() {
		runs, versions, _ := sl.Srv.Eng.GCStats()
		gcRuns, gcVersions = gcRuns+runs, gcVersions+versions
		r.applied += sl.Srv.Stats().Applied
		if n := sl.ApplyErrors(); n > 0 {
			applyErrors += n
			r.violations = append(r.violations, fmt.Sprintf("%s: %s: %d apply errors", c.w.Name, sl.Srv.Name, n))
		}
	}
	v["sqlengine.gc_runs"] = float64(gcRuns)
	v["sqlengine.gc_versions"] = float64(gcVersions)

	end := c.binlogMark()
	entries := float64(end.entries - base.entries)
	v["binlog.entries"] = entries
	v["binlog.bytes_per_write"] = float64(end.bytes-base.bytes) / float64(l.writes)
	v["repl.backlog_events_end"] = float64(win.backlogEnd)
	v["repl.relay_backlog_max"] = float64(win.relayMax)
	v["repl.applied_per_write"] = ratio(float64(r.applied), entries)
	v["repl.apply_errors"] = float64(applyErrors)

	// Router metrics read 0 on an unsharded cell: no router is in the path.
	routedStmts := float64(sh.SingleKey + sh.ScatterOps + sh.Broadcasts + sh.AnyReads)
	v["shard.single_key_share"] = ratio(float64(sh.SingleKey), routedStmts)
	v["shard.scatter_legs_per_scatter"] = ratio(float64(sh.ScatterLegs), float64(sh.ScatterOps))
	v["shard.wrong_shard_retries"] = float64(sh.WrongShardRetries)
	v["shard.cell_ops_imbalance"] = 0
	v["shard.single_vms_p95"] = 0
	v["shard.scatter_vms_p95"] = 0
	if sc := c.db.Shards(); sc != nil {
		per := sc.CellThroughput()
		lo, hi, sum := per[0], per[0], uint64(0)
		for _, n := range per {
			lo, hi, sum = min(lo, n), max(hi, n), sum+n
		}
		v["shard.cell_ops_imbalance"] = ratio(float64(hi-lo)*float64(len(per)), float64(sum))
		v["shard.single_vms_p95"] = metrics.Quantile(sc.SingleLatency().Float64s(), 0.95)
		v["shard.scatter_vms_p95"] = metrics.Quantile(sc.ScatterLatency().Float64s(), 0.95)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// logMark is a master-side binlog position summed over cells.
type logMark struct {
	entries uint64
	bytes   int64
}

func (c *cell) binlogMark() logMark {
	var m logMark
	for _, ma := range c.masters {
		m.entries += ma.Srv.Log.LastSeq()
		m.bytes += ma.Srv.Log.Bytes()
	}
	return m
}

// delays pools the steady window's heartbeat delays (master commit to slave
// apply, on the nodes' own clocks) over every slave of every cell. A
// heartbeat a slave never applied counts as that slave's worst observed
// delay; when a starved slave applied none of the window, each counts as how
// long its oldest unapplied heartbeat had been waiting when the rep ended.
func (c *cell) delays(l *load, r *rep) error {
	var pooled []float64
	ids, missing := 0, 0
	for i, m := range c.masters {
		window := c.beats[i].IDsInWindow(l.steadyFrom, l.steadyTo)
		for _, sl := range m.Slaves() {
			applied, miss, err := heartbeat.SlaveDelays(m, sl, window)
			if err != nil {
				return fmt.Errorf("%s: %w", c.w.Name, err)
			}
			ids += len(window)
			missing += miss
			if len(applied) == 0 {
				stale, err := c.beats[i].Staleness(sl, c.env.Now())
				if err != nil {
					return fmt.Errorf("%s: %w", c.w.Name, err)
				}
				for range window {
					pooled = append(pooled, ms(stale))
				}
				continue
			}
			padded, err := heartbeat.PaddedDelays(m, sl, window)
			if err != nil {
				return fmt.Errorf("%s: %w", c.w.Name, err)
			}
			pooled = append(pooled, padded...)
		}
	}
	r.delaySamples = len(pooled)
	r.virtual["repl_delay_p50_vms"] = metrics.Quantile(pooled, 0.50)
	r.virtual["repl_delay_p95_vms"] = metrics.Quantile(pooled, 0.95)
	r.virtual["heartbeat.samples"] = float64(len(pooled))
	r.virtual["heartbeat.missing_share"] = ratio(float64(missing), float64(ids))
	return nil
}

var cloudstoneTables = []string{"users", "events", "attendance", "tags", "event_tags", "comments", "friends"}

// check runs the end-of-rep correctness checks that need the cell.
func (c *cell) check(l *load, r *rep) {
	fail := func(format string, args ...any) {
		r.violations = append(r.violations, c.w.Name+": "+fmt.Sprintf(format, args...))
	}
	count := func(srv *server.DBServer, table string) int {
		res, err := srv.ExecFree(srv.Session(cloudstone.DatabaseName), "SELECT COUNT(*) AS n FROM "+table)
		if err != nil || res.Set == nil || len(res.Set.Rows) != 1 {
			fail("count %s on %s: %v", table, srv.Name, err)
			return -1
		}
		return int(res.Set.Rows[0][0].Int())
	}

	// Every acknowledged create-event page is exactly one row on a master.
	events := 0
	if sc := c.db.Shards(); sc != nil {
		n, err := sc.RowCount("events")
		if err != nil {
			fail("%v", err)
		}
		events = n
	} else {
		events = count(c.masters[0].Srv, "events")
	}
	if want := c.w.Scale + l.created; events != want {
		fail("masters hold %d events, want %d (preload %d + %d acknowledged create-event pages)",
			events, want, c.w.Scale, l.created)
	}

	// A cell with headroom must have converged once the grace period is over.
	if !c.w.Converges {
		return
	}
	for _, m := range c.masters {
		for _, sl := range m.Slaves() {
			if lag := sl.EventsBehindMaster(); lag != 0 {
				fail("%s is %d events behind after the grace period", sl.Srv.Name, lag)
			}
			for _, t := range cloudstoneTables {
				if got, want := count(sl.Srv, t), count(m.Srv, t); got != want {
					fail("%s has %d rows in %s, master has %d", sl.Srv.Name, got, t, want)
				}
			}
		}
	}
}

// virtualBlock renders the rep's virtual metrics canonically: sorted names,
// shortest round-trip formatting. Two reps at one seed must render the same
// bytes.
func (r *rep) virtualBlock() string {
	names := make([]string, 0, len(r.virtual))
	for k := range r.virtual {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%s\n", k, strconv.FormatFloat(r.virtual[k], 'g', -1, 64))
	}
	return b.String()
}
