package sqlengine

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// analyzeOracle is ANALYZE as it was before the pass moved onto engine-owned
// scratch — fresh profile, one string-keyed set per column, a key copied per
// distinct value — kept as the reference the live pass is compared against.
// It leaves the table and the engine untouched.
func analyzeOracle(e *Engine, t *Table) tableStats {
	var ts tableStats
	ncols := len(t.Columns)
	ts.cols = make([]colStats, ncols)
	seen := make([]map[string]struct{}, ncols)
	for i := range seen {
		seen[i] = make(map[string]struct{})
	}
	for _, r := range t.store.rows {
		for i, v := range r.vals {
			cs := &ts.cols[i]
			if v.IsNull() {
				cs.nulls++
				continue
			}
			seen[i][string(v.hashKey().appendTo(nil))] = struct{}{}
			if !cs.bounded {
				cs.min, cs.max, cs.bounded = v, v, true
				continue
			}
			if Compare(v, cs.min) < 0 {
				cs.min = v
			}
			if Compare(v, cs.max) > 0 {
				cs.max = v
			}
		}
	}
	for i := range ts.cols {
		ts.cols[i].ndv = len(seen[i])
		if ts.cols[i].ndv == 0 {
			ts.cols[i].ndv = 1
		}
	}
	ts.analyzedRows = t.NumRows()
	ts.analyzedV = e.commitV
	return ts
}

// analyzeDiff runs the live pass on t and lists every field in which its
// result departs from the oracle's.
func analyzeDiff(e *Engine, t *Table) []string {
	want := analyzeOracle(e, t)
	gen, catalog := t.statsGen, e.catalogEpoch
	others := otherGens(e, t)
	e.analyze(t)
	got := t.stats
	var diffs []string
	note := func(format string, args ...any) {
		diffs = append(diffs, t.Name+": "+fmt.Sprintf(format, args...))
	}
	if t.statsGen != gen+1 || e.catalogEpoch != catalog {
		note("statistics generation moved by %d and the catalog epoch by %d, want 1 and 0", t.statsGen-gen, e.catalogEpoch-catalog)
	}
	for other, was := range others {
		if other.statsGen != was {
			note("moved the statistics generation of %s by %d", other.Name, other.statsGen-was)
		}
	}
	if got.analyzedRows != want.analyzedRows || got.analyzedV != want.analyzedV {
		note("analyzed %d rows at v%d, want %d at v%d", got.analyzedRows, got.analyzedV, want.analyzedRows, want.analyzedV)
	}
	if len(got.cols) != len(want.cols) {
		note("%d column profiles, want %d", len(got.cols), len(want.cols))
		return diffs
	}
	for i, w := range want.cols {
		// Values are compared as structs: an ANALYZE that kept 1.0 where
		// the old one kept 1 would cost a range predicate differently.
		if g := got.cols[i]; g != w {
			note("column %s: got %+v, want %+v", t.Columns[i].Name, g, w)
		}
	}
	for i := range e.distinct {
		if n := e.distinct[i].len(); n != 0 {
			note("distinct set %d holds %d keys after the pass", i, n)
		}
	}
	return diffs
}

// otherGens returns the statistics generation of every table of e but t.
func otherGens(e *Engine, t *Table) map[*Table]uint64 {
	gens := map[*Table]uint64{}
	for _, db := range e.dbs {
		for _, other := range db.tables {
			if other != t {
				gens[other] = other.statsGen
			}
		}
	}
	return gens
}

// AnalyzeDiffs compares the live ANALYZE with the oracle on every table of
// the engine, for tests outside the package that bring real data. It returns
// the number of tables compared.
func AnalyzeDiffs(e *Engine) (tables int, diffs []string) {
	var names []string
	for name := range e.dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var tnames []string
		for tn := range e.dbs[name].tables {
			tnames = append(tnames, tn)
		}
		sort.Strings(tnames)
		for _, tn := range tnames {
			tables++
			diffs = append(diffs, analyzeDiff(e, e.dbs[name].tables[tn])...)
		}
	}
	return tables, diffs
}

// rawTable builds a table straight from value rows, so a column can hold
// what no INSERT would leave there: mixed kinds, values a typed column would
// have coerced.
func rawTable(t *testing.T, cols []string, rows ...[]Value) *Table {
	t.Helper()
	defs := make([]ColumnDef, len(cols))
	for i, c := range cols {
		defs[i] = ColumnDef{Name: c, Type: KindString}
	}
	tbl, err := NewTable("raw", defs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		tbl.store.rows = append(tbl.store.rows, &Row{vals: r})
	}
	return tbl
}

func TestAnalyzeEquivalence(t *testing.T) {
	e := NewEngine()
	i, f, s := NewInt, NewFloat, NewString
	check := func(name string, tbl *Table) {
		t.Helper()
		for _, d := range analyzeDiff(e, tbl) {
			t.Errorf("%s: %s", name, d)
		}
	}

	check("empty", rawTable(t, []string{"a", "b"}))
	check("kinds that compare equal", rawTable(t, []string{"num", "mixed"},
		[]Value{i(1), i(1)},
		[]Value{f(1.0), f(1.0)},
		[]Value{f(1.5), s("1")},
		[]Value{i(2), NewBool(true)},
		[]Value{f(2.0), NewTime(1)},
		[]Value{f(math.Copysign(0, -1)), i(0)},
		[]Value{i(0), f(0)},
		[]Value{f(1e300), f(-1e300)},
		[]Value{i(math.MaxInt64), i(math.MinInt64)},
		[]Value{f(math.Inf(1)), f(math.Inf(-1))},
	))
	check("nulls and empty strings", rawTable(t, []string{"all_null", "some_null", "empty"},
		[]Value{Null, Null, s("")},
		[]Value{Null, s(""), s("")},
		[]Value{Null, s("x"), s(" ")},
		[]Value{Null, Null, s("s")}, // "s" + "" and "" + "s" must not meet
	))
	check("bool and time", rawTable(t, []string{"flag", "at"},
		[]Value{NewBool(true), NewTime(1700000000000000)},
		[]Value{NewBool(false), NewTime(1700000000000000)},
		[]Value{NewBool(true), NewTime(1700000000000001)},
		[]Value{Null, NewTime(-5)},
	))
	// A string column whose values are prefixes and number look-alikes of
	// one another.
	check("look-alikes", rawTable(t, []string{"v"},
		[]Value{s("n1")}, []Value{s("1")}, []Value{i(1)}, []Value{s("s1")}, []Value{s("1.0")}, []Value{f(1)},
	))

	// Through SQL: a table analysed, shrunk by deletes, and analysed again
	// must forget the first pass — in its own profile, which is overwritten
	// in place, and in the engine's sets.
	sess := e.NewSession("")
	for _, sql := range []string{
		"CREATE DATABASE d", "USE d",
		"CREATE TABLE wide (id BIGINT PRIMARY KEY, g BIGINT, name VARCHAR(20), score DOUBLE, INDEX by_g(g))",
		"CREATE TABLE narrow (id BIGINT PRIMARY KEY, tag VARCHAR(8))",
	} {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for n := int64(0); n < 400; n++ {
		if _, err := sess.Exec("INSERT INTO wide (id, g, name, score) VALUES (?, ?, ?, ?)",
			i(n), i(n%17), s(fmt.Sprintf("name%03d", n%90)), f(float64(n%40)/4)); err != nil {
			t.Fatal(err)
		}
	}
	for n := int64(0); n < 30; n++ {
		if _, err := sess.Exec("INSERT INTO narrow (id, tag) VALUES (?, ?)", i(n), s(fmt.Sprint("t", n%3))); err != nil {
			t.Fatal(err)
		}
	}
	db, _ := e.Database("d")
	wide, _ := db.Table("wide")
	narrow, _ := db.Table("narrow")
	check("wide", wide)
	if got := wide.stats.cols[1].ndv; got != 17 {
		t.Fatalf("wide.g: ndv %d, want 17", got)
	}
	check("narrow after wide", narrow) // shares the engine's first two sets
	if _, err := sess.Exec("DELETE FROM wide WHERE g > 4"); err != nil {
		t.Fatal(err)
	}
	check("wide after deletes", wide)
	if got := wide.stats.cols[1].ndv; got != 5 {
		t.Fatalf("wide.g after deletes: ndv %d, want 5", got)
	}
	check("wide unchanged", wide)
}

// TestAnalyzeAllocs: re-analysing a table whose distinct values fit what an
// earlier pass saw allocates nothing, however many rows it scans.
func TestAnalyzeAllocs(t *testing.T) {
	for _, rows := range []int64{500, 20000} {
		e := NewEngine()
		sess := e.NewSession("")
		for _, sql := range []string{"CREATE DATABASE d", "USE d", "CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, name VARCHAR(20), at TIMESTAMP)"} {
			if _, err := sess.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		for n := int64(0); n < rows; n++ {
			if _, err := sess.Exec("INSERT INTO t (id, g, name, at) VALUES (?, ?, ?, ?)",
				NewInt(n), NewInt(n%50), NewString(fmt.Sprint("name", n)), NewTime(n)); err != nil {
				t.Fatal(err)
			}
		}
		db, _ := e.Database("d")
		tbl, _ := db.Table("t")
		e.analyze(tbl)
		if got := testing.AllocsPerRun(5, func() { e.analyze(tbl) }); got != 0 {
			t.Errorf("%d rows: a second ANALYZE allocates %.0f objects, want 0", rows, got)
		}
		if tbl.stats.cols[2].ndv != int(rows) || tbl.stats.cols[1].ndv != 50 {
			t.Errorf("%d rows: ndv %d and %d", rows, tbl.stats.cols[2].ndv, tbl.stats.cols[1].ndv)
		}
	}
}

// TestPlanStatsCountBuildsAndPasses pins what the two counters count and what
// retires a plan: a plan is built on a statement's first run and again when
// the catalog changes (CREATE/DROP TABLE, Restore: every plan) or new
// statistics of one of its own tables change one of its decisions. ANALYZE
// re-costs the cost-based plans over that table in place — here the same
// objects afterwards, no build counted — while TRUNCATE empties the table, so
// that a scan becomes the cheapest access and the plans over it are rebuilt;
// a plan over another table and a write plan are the same objects throughout.
// A statistics pass is made on first planning and on every explicit ANALYZE.
func TestPlanStatsCountBuildsAndPasses(t *testing.T) {
	s := newTestDB(t)
	eng := s.eng
	prepare := func(sql string) *Statement {
		t.Helper()
		st, err := eng.Prepare(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return st
	}
	overUsers := prepare("SELECT name FROM users WHERE id = ?")
	overEvents := prepare("SELECT title FROM events WHERE creator_id = ?")
	overBoth := prepare("SELECT u.name, e.title FROM users u JOIN events e ON e.creator_id = u.id WHERE u.id = ?")
	write := prepare("UPDATE users SET karma = karma + 1 WHERE id = ?")
	stmts := []*Statement{overUsers, overEvents, overBoth, write}
	// current runs every statement and returns the plan each ran: a *Plan,
	// or the write's *writePlan.
	current := func() (plans [4]any) {
		t.Helper()
		for i, st := range stmts {
			if _, err := st.Run(s, NewInt(3)); err != nil {
				t.Fatalf("%s: %v", st.Norm(), err)
			}
			if st == write {
				plans[i] = st.writes[0]
			} else {
				plans[i] = st.plans[0]
			}
		}
		return plans
	}
	users, events := mustTable(t, eng, "users"), mustTable(t, eng, "events")
	// step runs change, then every statement, and holds the outcome to which
	// plans were rebuilt (by pointer identity), the plans and passes counted,
	// and how far each table's statistics generation moved.
	before := [4]any{}
	step := func(name string, change func(), rebuilt [4]bool, passes uint64, usersGen, eventsGen uint64) {
		t.Helper()
		builds0, passes0 := eng.PlanStats()
		ug, eg := users.statsGen, events.statsGen
		change()
		// A table the change replaced (Restore) counts from where it starts.
		if now := mustTable(t, eng, "users"); now != users {
			users, ug = now, now.statsGen
		}
		if now := mustTable(t, eng, "events"); now != events {
			events, eg = now, now.statsGen
		}
		after := current()
		want := uint64(0)
		for i := range after {
			if rebuilt[i] {
				want++
			}
			if (after[i] != before[i]) != rebuilt[i] {
				t.Errorf("%s: %s: rebuilt %v, want %v", name, stmts[i].Norm(), after[i] != before[i], rebuilt[i])
			}
		}
		before = after
		builds1, passes1 := eng.PlanStats()
		if builds1-builds0 != want || passes1-passes0 != passes {
			t.Errorf("%s: %d plans built and %d statistics passes, want %d and %d", name, builds1-builds0, passes1-passes0, want, passes)
		}
		if users.statsGen-ug != usersGen || events.statsGen-eg != eventsGen {
			t.Errorf("%s: generations moved by %d (users) and %d (events), want %d and %d",
				name, users.statsGen-ug, events.statsGen-eg, usersGen, eventsGen)
		}
	}
	exec := func(sql string) func() {
		return func() {
			t.Helper()
			if _, err := s.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	all, none := [4]bool{true, true, true, true}, [4]bool{}

	step("first run", func() {}, all, 2, 1, 1) // one pass per table, the join finds both fresh
	step("second run", func() {}, none, 0, 0, 0)
	step("ANALYZE users", func() {
		if _, err := eng.Analyze("app", "users"); err != nil {
			t.Fatal(err)
		}
	}, none, 1, 1, 0)
	step("ANALYZE events", func() {
		if _, err := eng.Analyze("app", "events"); err != nil {
			t.Fatal(err)
		}
	}, none, 1, 0, 1)
	step("CREATE TABLE", exec("CREATE TABLE scratch (id BIGINT PRIMARY KEY)"), all, 0, 0, 0)
	step("DROP TABLE", exec("DROP TABLE scratch"), all, 0, 0, 0)
	// The truncate moves events' generation and the rebuild's re-ANALYZE of
	// the now empty table moves it again.
	step("TRUNCATE events", exec("TRUNCATE TABLE events"), [4]bool{false, true, true, false}, 1, 0, 2)
	step("Restore", func() {
		if err := eng.Restore(eng.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}, all, 0, 0, 0)

	builds, _ := eng.PlanStats()
	exec("EXPLAIN UPDATE users SET karma = 1 WHERE id = 3")()
	if b, _ := eng.PlanStats(); b != builds {
		t.Errorf("EXPLAIN of a write counted as a plan built to run")
	}
}

// TestRecostKeepsOrReplacesThePlan: an ANALYZE under a cached plan re-costs
// it. Statistics that decide what the plan does keep the same *Plan with a
// rebuild's estimates; statistics that decide another index give a new plan,
// and EXPLAIN shows that index. The plan-reuse oracle watches throughout.
func TestRecostKeepsOrReplacesThePlan(t *testing.T) {
	s := newTestDB(t)
	run := func(sql string, args ...Value) *Result {
		t.Helper()
		res, err := s.Exec(sql, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	run("CREATE TABLE pairs (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT, INDEX by_a(a), INDEX by_b(b))")
	for i := int64(0); i < 200; i++ {
		run("INSERT INTO pairs (id, a, b) VALUES (?, ?, ?)", NewInt(i), NewInt(i%100), NewInt(i%4))
	}
	st, err := s.eng.Prepare("SELECT id FROM pairs WHERE b = ? AND a = ?")
	if err != nil {
		t.Fatal(err)
	}
	// plan runs the statement and returns the plan it ran, its EXPLAIN and
	// the plans built for it.
	plan := func() (*Plan, string, uint64) {
		t.Helper()
		builds, _ := s.eng.PlanStats()
		if _, err := st.Run(s, NewInt(1), NewInt(1)); err != nil {
			t.Fatal(err)
		}
		now, _ := s.eng.PlanStats()
		return st.plans[0], st.plans[0].Explain(), now - builds
	}
	analyze := func() {
		t.Helper()
		if _, err := s.eng.Analyze("app", "pairs"); err != nil {
			t.Fatal(err)
		}
	}
	stop := WatchPlanReuse()
	first, explained, built := plan()
	if built != 1 || !strings.Contains(explained, "via by_a") {
		t.Fatalf("first run: %d built, plan\n%s\nwant one, by_a", built, explained)
	}

	// Grown by a quarter: a re-ANALYZE is due and still picks by_a.
	for i := int64(200); i < 260; i++ {
		run("INSERT INTO pairs (id, a, b) VALUES (?, ?, ?)", NewInt(i), NewInt(i%100), NewInt(i%4))
	}
	_, passes := s.eng.PlanStats()
	kept, explained, built := plan()
	if _, now := s.eng.PlanStats(); kept != first || built != 0 || now != passes+1 {
		t.Fatalf("after drift: same plan %v, %d built, %d passes; want the same plan, none built, one pass", kept == first, built, now-passes)
	}
	if !strings.Contains(explained, "cost=3)") || !strings.Contains(explained, "scan pairs via by_a") {
		t.Fatalf("after drift the kept plan reads\n%s\nwant by_a at the new estimate of 260/100 rows", explained)
	}

	// Same rows, new profile: a fits 2 values and b 260, so by_b is cheaper.
	run("UPDATE pairs SET a = id % 2, b = id")
	analyze()
	flipped, explained, built := plan()
	if flipped == first || built != 1 || !strings.Contains(explained, "via by_b") {
		t.Fatalf("after the flip: same plan %v, %d built, plan\n%s\nwant a new plan via by_b", flipped == first, built, explained)
	}
	if seen := stop(); seen.Mismatch != "" || seen.Recosts != 1 {
		t.Fatalf("oracle: %+v, want one re-cost and no mismatch", seen)
	}
}

// TestRecostAllocs: re-costing a cached join plan after an ANALYZE of one of
// its tables allocates nothing, and neither does the run (for a key that is
// absent: the rows a run returns are the caller's).
func TestRecostAllocs(t *testing.T) {
	s := newTestDB(t)
	st, err := s.eng.Prepare("SELECT u.name, e.title FROM users u JOIN events e ON e.creator_id = u.id WHERE u.id = ?")
	if err != nil {
		t.Fatal(err)
	}
	var out Reply
	absent := []Value{NewInt(-1)}
	once := func() {
		if _, err := s.eng.Analyze("app", "events"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.RunInto(s, &out, absent...); err != nil {
			t.Fatal(err)
		}
	}
	once()
	once()
	builds, _ := s.eng.PlanStats()
	if got := testing.AllocsPerRun(20, once); got != 0 {
		t.Errorf("ANALYZE and a run of the re-costed plan allocate %.1f objects, want 0", got)
	}
	if now, _ := s.eng.PlanStats(); now != builds {
		t.Errorf("%d plans built, want the plan re-costed in place", now-builds)
	}
}

// mustTable returns app.name as the engine's catalog has it now.
func mustTable(t *testing.T, e *Engine, name string) *Table {
	t.Helper()
	db, _ := e.Database("app")
	tbl, ok := db.Table(name)
	if !ok {
		t.Fatalf("no table %s", name)
	}
	return tbl
}
