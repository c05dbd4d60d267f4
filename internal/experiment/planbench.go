package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
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
// write-plan regressions surface immediately (`make bench-plan` gates rates
// and allocs/op against the checked-in bench/planner_baseline.json).
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
	// Preload is what a cluster's master pays at set-up — Cloudstone at scale
	// 600 loaded by SQL on a new server, rows/s — and Restore what each of its
	// replicas pays instead: that server's engine image restored onto a new
	// engine, same rows.
	Preload PlanBenchMeasure `json:"preload"`
	Restore PlanBenchMeasure `json:"restore"`
}

// planShapes lists the measured shapes in report order, with how each is
// gated: the one table RenderPlanBench, CheckPlanBaseline and the history
// row (history.go) walk.
var planShapes = []struct {
	name  string // the shape's JSON key
	get   func(*PlanBenchResult) *PlanBenchMeasure
	perOp bool // gate ops/sec rather than rows/sec
	// slack is an absolute allowance in allocs/op on top of the 5%: an
	// analyze op is a pass over planBenchAnalyzeRows rows whose baseline is
	// zero objects, so a stray runtime allocation must not trip the gate,
	// while the regression it exists for costs one per row; a replan op's
	// baseline is zero too and its regression a whole plan.
	slack float64
}{
	{"point_read", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.PointRead }, true, 0},
	{"index_scan", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.IndexScan }, false, 0},
	{"hash_join", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.HashJoin }, false, 0},
	{"group_agg", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.GroupAgg }, false, 0},
	{"topn_scan", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.TopNScan }, false, 0},
	{"topn_scan_desc", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.TopNScanDesc }, false, 0},
	{"topn_scan_shuffled", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.TopNScanShuffled }, false, 0},
	{"like_scan", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.LikeScan }, false, 0},
	{"replan", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Replan }, true, 0.5},
	{"insert", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Insert }, true, 0},
	{"point_update", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.PointUpdate }, true, 0},
	{"point_update_2k", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.PointUpdate2k }, true, 0},
	{"point_update_60k", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.PointUpdate60k }, true, 0},
	{"apply_insert", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.ApplyInsert }, true, 0},
	{"analyze", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Analyze }, false, 2},
	{"preload", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Preload }, false, 0},
	{"restore", func(r *PlanBenchResult) *PlanBenchMeasure { return &r.Restore }, false, 0},
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

// measurePlanBench runs one statement shape for iters iterations and derives
// the rates. One untimed warm-up execution populates the plan cache and
// refreshes statistics, so the loop measures steady-state execution.
// The timed loop repeats three times and the fastest repetition is reported:
// wall-clock noise (GC pauses, scheduler preemption) is one-sided, so
// best-of-N is what makes a 20% regression gate hold on shared hardware.
// Allocations are averaged over every repetition — they are deterministic.
func measurePlanBench(iters int, run func(i int) (*sqlengine.Result, error)) (PlanBenchMeasure, error) {
	if _, err := run(0); err != nil {
		return PlanBenchMeasure{}, err
	}
	const reps = 3
	var rows uint64
	var best time.Duration
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < reps; r++ {
		rows = 0
		//cloudrepl:allow-simtime the planner bench measures real elapsed wall time per statement
		start := time.Now()
		for i := 0; i < iters; i++ {
			res, err := run(i)
			if err != nil {
				return PlanBenchMeasure{}, err
			}
			rows += uint64(res.Stats.RowsExamined)
		}
		//cloudrepl:allow-simtime the planner bench measures real elapsed wall time per statement
		wall := time.Since(start)
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
	if best > 0 {
		m.OpsPerSec = float64(iters) / best.Seconds()
		m.RowsPerSec = float64(rows) / best.Seconds()
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

	replan, err := eng.Prepare("SELECT val FROM items WHERE id = ?")
	if err != nil {
		return res, err
	}
	var reply sqlengine.Reply
	absent := []sqlengine.Value{sqlengine.NewInt(0)}
	replanOnce := func(int) (*sqlengine.Result, error) {
		if _, err := eng.Analyze("bench", "ticks"); err != nil {
			return nil, err
		}
		return replan.RunInto(sess, &reply, absent...)
	}
	// Three passes before the measured ones, as for the analyze shape below;
	// the first builds the plan.
	for i := 0; i < 2; i++ {
		if _, err := replanOnce(i); err != nil {
			return res, fmt.Errorf("planbench replan: %w", err)
		}
	}
	builds, _ := eng.PlanStats()
	res.Replan, err = measurePlanBench(20000, replanOnce)
	if err != nil {
		return res, fmt.Errorf("planbench replan: %w", err)
	}
	if now, _ := eng.PlanStats(); now != builds {
		return res, fmt.Errorf("planbench replan: %d plans rebuilt over a table nothing analyzed", now-builds)
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
	res.Preload, err = measurePlanBench(3, func(int) (*sqlengine.Result, error) {
		srv := server.New(env, "bench", inst, server.DefaultCostModel())
		if err := cloudstone.Preload(planBenchPreloadScale)(srv); err != nil {
			return nil, err
		}
		img = srv.Eng.Snapshot()
		pass.Stats.RowsExamined = img.NumRows()
		return &pass, nil
	})
	if err != nil {
		return res, fmt.Errorf("planbench preload: %w", err)
	}
	res.Restore, err = measurePlanBench(30, func(int) (*sqlengine.Result, error) {
		pass.Stats.RowsExamined = img.NumRows()
		return &pass, sqlengine.NewEngine().Restore(img)
	})
	if err != nil {
		return res, fmt.Errorf("planbench restore: %w", err)
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

// CheckPlanBaseline compares a fresh planner bench against the checked-in
// baseline and fails when any shape's rows/sec has regressed more than 20%
// (point read and the write shapes gate ops/sec instead — they touch one row
// per statement, so per-statement overhead is what they exist to catch) or its
// allocs/op has risen more than 5% (plus the shape's slack, see planShapes) —
// allocation counts repeat exactly, so the tolerance only absorbs amortized
// growth of reused buffers. Refresh deliberately with:
// cp <jsondir>/BENCH_planner.json bench/planner_baseline.json
func CheckPlanBaseline(path string, cur PlanBenchResult) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("planner baseline: %w", err)
	}
	var base PlanBenchResult
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("planner baseline %s: %w", path, err)
	}
	for _, sh := range planShapes {
		cur, base := sh.get(&cur), sh.get(&base)
		unit, curRate, baseRate := "rows", cur.RowsPerSec, base.RowsPerSec
		if sh.perOp {
			unit, curRate, baseRate = "ops", cur.OpsPerSec, base.OpsPerSec
		}
		if baseRate <= 0 {
			return fmt.Errorf("planner baseline %s: %s %s rate missing or zero", path, sh.name, unit)
		}
		if limit := baseRate / 1.20; curRate < limit {
			return fmt.Errorf("planner regression: %s %s %.0f/sec is more than 20%% below baseline %.0f/sec (limit %.0f); if intentional, refresh %s",
				sh.name, unit, curRate, baseRate, limit, path)
		}
		if limit := base.AllocsPerOp*1.05 + sh.slack; cur.AllocsPerOp > limit {
			return fmt.Errorf("planner regression: %s %.1f allocs/op is more than 5%% above baseline %.1f (limit %.1f); if intentional, refresh %s",
				sh.name, cur.AllocsPerOp, base.AllocsPerOp, limit, path)
		}
	}
	return nil
}
