package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// PlanBenchMeasure is one query-shape measurement: fixed iteration count,
// wall-clocked, with the engine's rows-examined counter and process-wide
// allocation delta turned into the rates the regression gate watches.
type PlanBenchMeasure struct {
	Ops          uint64  `json:"ops"`
	RowsExamined uint64  `json:"rows_examined"`
	WallMs       float64 `json:"wall_ms"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	RowsPerSec   float64 `json:"rows_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
}

// PlanBenchResult is the BENCH_planner.json payload: the executor's speed on
// the four query shapes the planner work rebuilt, the two scans a Cloudstone
// page spends its host time in, the three write shapes of the compiled write
// path and the statistics pass — tracked PR-over-PR so operator-tree and
// write-plan regressions surface immediately (`make bench-gate` holds each
// shape's ops/s and allocs/op to the parent commit's, bench/summary.awk).
type PlanBenchResult struct {
	// PointRead is a unique-key lookup: plan-cache hit + one index probe,
	// the executor's minimum per-statement overhead.
	PointRead PlanBenchMeasure `json:"point_read"`
	// IndexScan is a non-unique eq bucket scan with a residual filter.
	IndexScan PlanBenchMeasure `json:"index_scan"`
	// HashJoin is a full two-table equi-join with no usable inner index, so
	// the planner must pick the hash algorithm (asserted at setup).
	HashJoin PlanBenchMeasure `json:"hash_join"`
	// GroupAgg is a grouped COUNT over the full table.
	GroupAgg PlanBenchMeasure `json:"group_agg"`
	// TopNScan is the home page's shape, ORDER BY ts DESC LIMIT 10 over a full
	// scan, with the rows stored in ascending ts: every row displaces one of
	// the ten kept, the most a bounded top-N can be made to do. TopNScanDesc
	// and TopNScanShuffled read the same rows stored descending (the least)
	// and shuffled; the three rates must stay close.
	TopNScan         PlanBenchMeasure `json:"topn_scan"`
	TopNScanDesc     PlanBenchMeasure `json:"topn_scan_desc"`
	TopNScanShuffled PlanBenchMeasure `json:"topn_scan_shuffled"`
	// LikeScan is Cloudstone's text search, title LIKE '%<n> m%' LIMIT 10,
	// for an n only one title carries: every row is matched.
	LikeScan PlanBenchMeasure `json:"like_scan"`
	// Replan is a prepared point SELECT over items re-run after each ANALYZE
	// of ticks, a table it does not read: the plan must survive, so an op is
	// a nine-row statistics pass plus a plan-cache hit and allocates nothing
	// (the key is absent and the reply reused). A plan retired by another
	// table's statistics shows as a rebuild's objects per op — and fails the
	// bench outright, which counts the rebuilds.
	Replan PlanBenchMeasure `json:"replan"`
	// Recost is a prepared join over ticks and items re-run after each ANALYZE
	// of ticks, a table it reads: the new statistics decide what the cached
	// plan does, so an op is the pass, the plan re-costed in place and its run,
	// and allocates nothing (the key is absent and the reply reused). A plan
	// rebuilt instead shows as its objects per op — and fails the bench, which
	// counts the rebuilds.
	Recost PlanBenchMeasure `json:"recost"`
	// Insert is a parameterised one-row INSERT into a table with a primary
	// key and one secondary index: the compiled write plan, the replayable
	// text and the logged argument copy, a commit hook attached.
	Insert PlanBenchMeasure `json:"insert"`
	// PointUpdate is a parameterised UPDATE of one row by primary key.
	PointUpdate PlanBenchMeasure `json:"point_update"`
	// PointUpdate2k and PointUpdate60k are the same statement against tables
	// of 2 000 and 60 000 rows and nothing else: a write — the chain GC's
	// sweep included — must cost what it writes, not what the table holds.
	PointUpdate2k  PlanBenchMeasure `json:"point_update_2k"`
	PointUpdate60k PlanBenchMeasure `json:"point_update_60k"`
	// ApplyInsert replays the entries Insert logged on a second engine — the
	// replication apply path: a parse-cache hit per entry, the replica's own
	// write plan, the master's text reused.
	ApplyInsert PlanBenchMeasure `json:"apply_insert"`
	// Analyze is one statistics pass over the notes table as the write
	// shapes left it (planBenchAnalyzeRows rows, four columns): what a
	// replica pays each time apply has grown a table by a fifth.
	Analyze PlanBenchMeasure `json:"analyze"`
	// Preload is what a process pays once per data set — Cloudstone at scale
	// 600 loaded by SQL (cloudstone.LoadSQL) on a new server, rows/s — and
	// Restore what every node of every cluster pays instead: that server's
	// engine image restored onto a new engine, same rows, every table sharing
	// the image's. RestoreWrite is Restore and then one INSERT into every
	// table, each the table's first write, which gives it storage of its own:
	// what a node pays for the tables a run writes.
	Preload      PlanBenchMeasure `json:"preload"`
	Restore      PlanBenchMeasure `json:"restore"`
	RestoreWrite PlanBenchMeasure `json:"restore_write"`
}

// planShapes lists the measured shapes in report order: the one table
// RenderPlanBench walks.
var planShapes = []struct {
	name string // the shape's JSON key
	get  func(*PlanBenchResult) *PlanBenchMeasure
}{
	{"point_read", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.PointRead }},
	{"index_scan", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.IndexScan }},
	{"hash_join", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.HashJoin }},
	{"group_agg", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.GroupAgg }},
	{"topn_scan", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.TopNScan }},
	{"topn_scan_desc", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.TopNScanDesc }},
	{"topn_scan_shuffled", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.TopNScanShuffled }},
	{"like_scan", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.LikeScan }},
	{"replan", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Replan }},
	{"recost", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Recost }},
	{"insert", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Insert }},
	{"point_update", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.PointUpdate }},
	{"point_update_2k", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.PointUpdate2k }},
	{"point_update_60k", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.PointUpdate60k }},
	{"apply_insert", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.ApplyInsert }},
	{"analyze", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Analyze }},
	{"preload", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Preload }},
	{"restore", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Restore }},
	{"restore_write", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.RestoreWrite }},
}

// planBenchRows is the benchmark table size, small enough that the whole
// suite runs in a few seconds, large enough that per-row costs dominate.
const planBenchRows = 4000

// planBenchWriteIters is the iteration count of each write shape;
// planBenchAnalyzeRows is what the insert shape's warm-up and three timed
// repetitions leave in the notes table for the analyze shape to read.
const (
	planBenchWriteIters  = 20000
	planBenchAnalyzeRows = 3*planBenchWriteIters + 1
)

// planBenchPreloadScale is the data size of the preload and restore shapes:
// the 80/20 figures' (Fig. 3, Fig. 6), the larger of the paper's two.
const planBenchPreloadScale = 600

// planBenchFirstWrites is one INSERT into each Cloudstone table, at an id the
// load never reaches.
var planBenchFirstWrites = [...]string{
	"INSERT INTO users (id, username) VALUES (1000000, 'restored')",
	"INSERT INTO events (id, creator_id, title) VALUES (1000000, 1, 'restored')",
	"INSERT INTO attendance (id, event_id, user_id) VALUES (1000000, 1, 1)",
	"INSERT INTO tags (id, name) VALUES (1000000, 'restored')",
	"INSERT INTO event_tags (id, event_id, tag_id) VALUES (1000000, 1, 1)",
	"INSERT INTO comments (id, event_id, user_id) VALUES (1000000, 1, 1)",
	"INSERT INTO friends (id, user_id, friend_id) VALUES (1000000, 1, 2)",
}

// planBenchFeeds are the top-N shapes' tables: one set of rows (id, ts = id
// seconds, a Cloudstone title), inserted in ascending, descending and shuffled
// id order.
var planBenchFeeds = [...]string{"feed_asc", "feed_desc", "feed_shuffled"}

// planBenchDB loads the synthetic benchmark schema: items (unique PK,
// indexed non-unique group column), lines (one child per item, with the
// join column deliberately unindexed so an items⋈lines equi-join can only
// choose between hash and nested-loop) and the three feeds.
func planBenchDB() (*sqlengine.Engine, *sqlengine.Session, error) {
	eng := sqlengine.NewEngine()
	sess := eng.NewSession("")
	ddl := []string{
		"CREATE DATABASE bench",
		"USE bench",
		"CREATE TABLE items (id BIGINT PRIMARY KEY, grp BIGINT, val VARCHAR(32), INDEX idx_grp (grp))",
		"CREATE TABLE lines (id BIGINT PRIMARY KEY, ref BIGINT, qty BIGINT)",
		"CREATE TABLE notes (id BIGINT PRIMARY KEY, item BIGINT, body VARCHAR(64), created TIMESTAMP, INDEX idx_item (item))",
		"CREATE TABLE ticks (id BIGINT PRIMARY KEY)",
		"INSERT INTO ticks (id) VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9)",
	}
	for _, feed := range planBenchFeeds {
		ddl = append(ddl, "CREATE TABLE "+feed+" (id BIGINT PRIMARY KEY, ts TIMESTAMP, title VARCHAR(32))")
	}
	for _, q := range ddl {
		if _, err := sess.Exec(q); err != nil {
			return nil, nil, fmt.Errorf("planbench: %s: %w", q, err)
		}
	}
	ins, err := eng.Prepare("INSERT INTO items (id, grp, val) VALUES (?, ?, ?)")
	if err != nil {
		return nil, nil, err
	}
	insLine, err := eng.Prepare("INSERT INTO lines (id, ref, qty) VALUES (?, ?, ?)")
	if err != nil {
		return nil, nil, err
	}
	for i := 1; i <= planBenchRows; i++ {
		if _, err := ins.Run(sess,
			sqlengine.NewInt(int64(i)),
			sqlengine.NewInt(int64(i%50)),
			sqlengine.NewString(fmt.Sprintf("item%05d", i))); err != nil {
			return nil, nil, err
		}
		if _, err := insLine.Run(sess,
			sqlengine.NewInt(int64(i)),
			sqlengine.NewInt(int64(i)),
			sqlengine.NewInt(int64(i%7))); err != nil {
			return nil, nil, err
		}
	}
	// The shuffle is a Fisher–Yates over a fixed LCG stream: the same order
	// on every run.
	shuffled := make([]int, planBenchRows)
	for i := range shuffled {
		shuffled[i] = i + 1
	}
	for i, x := planBenchRows-1, uint64(1); i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i+1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	idAt := [len(planBenchFeeds)]func(i int) int{
		func(i int) int { return i },
		func(i int) int { return planBenchRows + 1 - i },
		func(i int) int { return shuffled[i-1] },
	}
	for f, feed := range planBenchFeeds {
		fill, err := eng.Prepare("INSERT INTO " + feed + " (id, ts, title) VALUES (?, ?, ?)")
		if err != nil {
			return nil, nil, err
		}
		for i := 1; i <= planBenchRows; i++ {
			id := idAt[f](i)
			if _, err := fill.Run(sess, sqlengine.NewInt(int64(id)), sqlengine.NewTime(int64(id)*1e6),
				sqlengine.NewString(fmt.Sprintf("Event %d meetup", id))); err != nil {
				return nil, nil, err
			}
		}
	}
	return eng, sess, nil
}

// planBenchSlices is how many slices each timed repetition of a shape is
// cut into, each timed on its own (fewer when the shape has fewer ops).
const planBenchSlices = 10

// measurePlanBench runs one statement shape for iters iterations and derives
// the rates. One untimed warm-up execution populates the plan cache and
// refreshes statistics, so the loop measures steady-state execution.
// The timed loop repeats three times with the collector off (a collection
// before each, untimed), and the rates are those of the fastest of its
// slices, for the reasons kernelMicroSteps and collectorOff give.
// WallMs is the fastest repetition's. Allocations are averaged over every
// repetition — they are deterministic.
func measurePlanBench(iters int, run func(i int) (*sqlengine.Result, error)) (PlanBenchMeasure, error) {
	if _, err := run(0); err != nil {
		return PlanBenchMeasure{}, err
	}
	const reps = 3
	slices := min(planBenchSlices, iters)
	var rows, bestRows uint64
	var best, bestSlice time.Duration
	bestOps := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < reps; r++ {
		gc := collectorOff()
		rows = 0
		var wall time.Duration
		for s := 0; s < slices; s++ {
			lo, hi := s*iters/slices, (s+1)*iters/slices
			var sliceRows uint64
			//cloudrepl:allow-simtime the planner bench measures real elapsed wall time per statement
			start := time.Now()
			for i := lo; i < hi; i++ {
				res, err := run(i)
				if err != nil {
					debug.SetGCPercent(gc)
					return PlanBenchMeasure{}, err
				}
				sliceRows += uint64(res.Stats.RowsExamined)
			}
			//cloudrepl:allow-simtime the planner bench measures real elapsed wall time per statement
			took := time.Since(start)
			wall += took
			rows += sliceRows
			if took > 0 && (bestSlice == 0 || took*time.Duration(bestOps) < bestSlice*time.Duration(hi-lo)) {
				bestSlice, bestOps, bestRows = took, hi-lo, sliceRows
			}
		}
		debug.SetGCPercent(gc)
		if r == 0 || wall < best {
			best = wall
		}
	}
	runtime.ReadMemStats(&after)

	m := PlanBenchMeasure{
		Ops:          uint64(iters),
		RowsExamined: rows,
		WallMs:       float64(best.Nanoseconds()) / 1e6,
	}
	if iters > 0 {
		m.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(reps*iters)
	}
	if bestSlice > 0 {
		m.OpsPerSec = float64(bestOps) / bestSlice.Seconds()
		m.RowsPerSec = float64(bestRows) / bestSlice.Seconds()
	}
	return m, nil
}

// PlanBench measures executor speed on the read shapes and the write
// shapes. The hash-join plan choice is asserted, not assumed: if the
// planner stops picking the hash algorithm for the unindexed join, the bench
// fails rather than silently measuring a different operator.
func PlanBench() (PlanBenchResult, error) {
	var res PlanBenchResult
	eng, sess, err := planBenchDB()
	if err != nil {
		return res, err
	}
	// runs adapts a prepared statement and an argument generator to the
	// measured call. args fills a reused vector, as a client's loop would.
	runs := func(st *sqlengine.Statement, args func(i int) []sqlengine.Value) func(int) (*sqlengine.Result, error) {
		return func(i int) (*sqlengine.Result, error) { return st.Run(sess, args(i)...) }
	}

	point, err := eng.Prepare("SELECT * FROM items WHERE id = ?")
	if err != nil {
		return res, err
	}
	res.PointRead, err = measurePlanBench(20000, runs(point, func(i int) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewInt(int64(i%planBenchRows) + 1)}
	}))
	if err != nil {
		return res, fmt.Errorf("planbench point read: %w", err)
	}

	scan, err := eng.Prepare("SELECT id, val FROM items WHERE grp = ?")
	if err != nil {
		return res, err
	}
	res.IndexScan, err = measurePlanBench(4000, runs(scan, func(i int) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewInt(int64(i % 50))}
	}))
	if err != nil {
		return res, fmt.Errorf("planbench index scan: %w", err)
	}

	join, err := eng.Prepare("SELECT COUNT(*) AS n FROM items i JOIN lines l ON l.ref = i.id WHERE l.qty = ?")
	if err != nil {
		return res, err
	}
	jp, err := join.Plan(sess)
	if err != nil {
		return res, err
	}
	if !strings.Contains(jp.Explain(), "hash_join") {
		return res, fmt.Errorf("planbench: join plan is not a hash join:\n%s", jp.Explain())
	}
	res.HashJoin, err = measurePlanBench(100, runs(join, func(i int) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewInt(int64(i % 7))}
	}))
	if err != nil {
		return res, fmt.Errorf("planbench hash join: %w", err)
	}

	agg, err := eng.Prepare("SELECT grp, COUNT(*) AS n FROM items GROUP BY grp ORDER BY n DESC")
	if err != nil {
		return res, err
	}
	res.GroupAgg, err = measurePlanBench(200, runs(agg, func(int) []sqlengine.Value { return nil }))
	if err != nil {
		return res, fmt.Errorf("planbench group agg: %w", err)
	}

	for i, into := range []*PlanBenchMeasure{&res.TopNScan, &res.TopNScanDesc, &res.TopNScanShuffled} {
		topn, err := eng.Prepare("SELECT id, title FROM " + planBenchFeeds[i] + " ORDER BY ts DESC LIMIT 10")
		if err != nil {
			return res, err
		}
		*into, err = measurePlanBench(400, runs(topn, func(int) []sqlengine.Value { return nil }))
		if err != nil {
			return res, fmt.Errorf("planbench top-n scan of %s: %w", planBenchFeeds[i], err)
		}
	}

	like, err := eng.Prepare("SELECT id, title FROM feed_asc WHERE title LIKE ? LIMIT 10")
	if err != nil {
		return res, err
	}
	// Four digits: no other title contains them before " m".
	patterns := make([]sqlengine.Value, 400)
	for i := range patterns {
		patterns[i] = sqlengine.NewString(fmt.Sprintf("%%%d m%%", 1000+i*7))
	}
	res.LikeScan, err = measurePlanBench(len(patterns), runs(like, func(i int) []sqlengine.Value {
		return patterns[i : i+1]
	}))
	if err != nil {
		return res, fmt.Errorf("planbench like scan: %w", err)
	}

	// afterAnalyze measures sql run after each ANALYZE of ticks, for a key no
	// row has and into one reply: the replan and recost shapes, neither of
	// which may rebuild a plan. Three passes come before the measured ones, as
	// for the analyze shape below; the first builds the plan.
	var reply sqlengine.Reply
	absent := []sqlengine.Value{sqlengine.NewInt(0)}
	afterAnalyze := func(shape, sql string) (PlanBenchMeasure, error) {
		st, err := eng.Prepare(sql)
		if err != nil {
			return PlanBenchMeasure{}, err
		}
		once := func(int) (*sqlengine.Result, error) {
			if _, err := eng.Analyze("bench", "ticks"); err != nil {
				return nil, err
			}
			return st.RunInto(sess, &reply, absent...)
		}
		for i := 0; i < 2; i++ {
			if _, err := once(i); err != nil {
				return PlanBenchMeasure{}, fmt.Errorf("planbench %s: %w", shape, err)
			}
		}
		builds, _ := eng.PlanStats()
		m, err := measurePlanBench(20000, once)
		if err != nil {
			return m, fmt.Errorf("planbench %s: %w", shape, err)
		}
		if now, _ := eng.PlanStats(); now != builds {
			return m, fmt.Errorf("planbench %s: %d plans rebuilt after an ANALYZE that changed no decision", shape, now-builds)
		}
		return m, nil
	}
	// replan reads items, which the ANALYZE leaves alone; recost joins ticks,
	// whose statistics the ANALYZE rebuilds, to items.
	if res.Replan, err = afterAnalyze("replan", "SELECT val FROM items WHERE id = ?"); err != nil {
		return res, err
	}
	if res.Recost, err = afterAnalyze("recost", "SELECT i.val FROM ticks t JOIN items i ON i.id = t.id WHERE t.id = ?"); err != nil {
		return res, err
	}

	// The write shapes run last: they change what the read shapes scan.
	const writeIters = planBenchWriteIters
	_, replicaSess, err := planBenchDB()
	if err != nil {
		return res, err
	}
	var logged []sqlengine.LoggedWrite
	eng.OnCommit = func(_ string, writes []sqlengine.LoggedWrite) { logged = append(logged, writes...) }
	insert, err := eng.Prepare("INSERT INTO notes (id, item, body, created) VALUES (?, ?, ?, UTC_MICROS())")
	if err != nil {
		return res, err
	}
	logged = make([]sqlengine.LoggedWrite, 0, 3*writeIters+1)
	next := int64(0)
	insertArgs := make([]sqlengine.Value, 3)
	res.Insert, err = measurePlanBench(writeIters, runs(insert, func(int) []sqlengine.Value {
		next++ // the timed loop repeats: ids keep counting across repetitions
		insertArgs[0], insertArgs[1] = sqlengine.NewInt(next), sqlengine.NewInt(next%planBenchRows+1)
		insertArgs[2] = sqlengine.NewString("a note on an item")
		return insertArgs
	}))
	if err != nil {
		return res, fmt.Errorf("planbench insert: %w", err)
	}
	inserted := logged
	logged = nil
	update, err := eng.Prepare("UPDATE items SET val = ? WHERE id = ?")
	if err != nil {
		return res, err
	}
	updateArgs := []sqlengine.Value{sqlengine.NewString("rewritten"), sqlengine.Null}
	res.PointUpdate, err = measurePlanBench(writeIters, runs(update, func(i int) []sqlengine.Value {
		updateArgs[1] = sqlengine.NewInt(int64(i%planBenchRows) + 1)
		return updateArgs
	}))
	if err != nil {
		return res, fmt.Errorf("planbench point update: %w", err)
	}
	for _, sized := range []struct {
		rows int
		into *PlanBenchMeasure
	}{{2000, &res.PointUpdate2k}, {60000, &res.PointUpdate60k}} {
		table := fmt.Sprintf("sized%d", sized.rows)
		if _, err := sess.Exec("CREATE TABLE " + table + " (id BIGINT PRIMARY KEY, val VARCHAR(32))"); err != nil {
			return res, err
		}
		fill, err := eng.Prepare("INSERT INTO " + table + " (id, val) VALUES (?, 'as loaded')")
		if err != nil {
			return res, err
		}
		for i := 0; i < sized.rows; i++ {
			if _, err := fill.Run(sess, sqlengine.NewInt(int64(i))); err != nil {
				return res, err
			}
		}
		update, err := eng.Prepare("UPDATE " + table + " SET val = ? WHERE id = ?")
		if err != nil {
			return res, err
		}
		// Every row is rewritten in turn, so the larger table also has the
		// larger set of rows with history behind them.
		*sized.into, err = measurePlanBench(writeIters, runs(update, func(i int) []sqlengine.Value {
			updateArgs[1] = sqlengine.NewInt(int64(i % sized.rows))
			return updateArgs
		}))
		if err != nil {
			return res, fmt.Errorf("planbench point update, %d rows: %w", sized.rows, err)
		}
	}
	applied := 0
	res.ApplyInsert, err = measurePlanBench(writeIters, func(int) (*sqlengine.Result, error) {
		applied++
		return replicaSess.Replay(inserted[applied-1])
	})
	if err != nil {
		return res, fmt.Errorf("planbench apply insert: %w", err)
	}
	// Two passes before the measured ones (measurePlanBench adds the second):
	// the first sizes the engine's distinct-value sets, and the runtime
	// re-seeds a map when it is cleared, so the second still grows a few of
	// their tables. From the third on a pass allocates nothing.
	if _, err := eng.Analyze("bench", "notes"); err != nil {
		return res, fmt.Errorf("planbench analyze: %w", err)
	}
	var pass sqlengine.Result // reused: the shape's allocations are the pass's own
	res.Analyze, err = measurePlanBench(20, func(int) (*sqlengine.Result, error) {
		rows, err := eng.Analyze("bench", "notes")
		if err == nil && rows != planBenchAnalyzeRows {
			err = fmt.Errorf("notes holds %d rows, want %d", rows, planBenchAnalyzeRows)
		}
		pass.Stats.RowsExamined = rows
		return &pass, err
	})
	if err != nil {
		return res, fmt.Errorf("planbench analyze: %w", err)
	}

	// Set-up: the SQL load, then the restore of what it built.
	env := sim.NewEnv(1)
	defer env.Shutdown()
	inst := cloud.New(env, cloud.Config{}).Launch("bench", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"})
	var img *sqlengine.Snapshot
	res.Preload, err = measurePlanBench(6, func(int) (*sqlengine.Result, error) {
		srv := server.New(env, "bench", inst, server.DefaultCostModel())
		if err := cloudstone.LoadSQL(srv.Eng, planBenchPreloadScale); err != nil {
			return nil, err
		}
		img = srv.Eng.Snapshot()
		pass.Stats.RowsExamined = img.NumRows()
		return &pass, nil
	})
	if err != nil {
		return res, fmt.Errorf("planbench preload: %w", err)
	}
	res.Restore, err = measurePlanBench(300, func(int) (*sqlengine.Result, error) {
		pass.Stats.RowsExamined = img.NumRows()
		return &pass, sqlengine.NewEngine().Restore(img)
	})
	if err != nil {
		return res, fmt.Errorf("planbench restore: %w", err)
	}
	res.RestoreWrite, err = measurePlanBench(100, func(int) (*sqlengine.Result, error) {
		eng := sqlengine.NewEngine()
		if err := eng.Restore(img); err != nil {
			return nil, err
		}
		sess := eng.NewSession(cloudstone.DatabaseName)
		for _, q := range planBenchFirstWrites {
			if _, err := sess.Exec(q); err != nil {
				return nil, fmt.Errorf("%s: %w", q, err)
			}
		}
		pass.Stats.RowsExamined = img.NumRows()
		return &pass, nil
	})
	if err != nil {
		return res, fmt.Errorf("planbench restore and write: %w", err)
	}
	return res, nil
}

// RenderPlanBench formats BENCH_planner for the console.
func RenderPlanBench(r PlanBenchResult) string {
	var b strings.Builder
	b.WriteString("BENCH-PLANNER — executor speed by query shape\n\n")
	fmt.Fprintf(&b, "%-16s %9s %14s %12s %12s %14s\n",
		"shape", "ops", "rows examined", "ops/sec", "rows/sec", "allocs/op")
	for _, sh := range planShapes {
		m := sh.get(&r)
		fmt.Fprintf(&b, "%-16s %9d %14d %12.0f %12.0f %14.1f\n",
			sh.name, m.Ops, m.RowsExamined, m.OpsPerSec, m.RowsPerSec, m.AllocsPerOp)
	}
	return b.String()
}
