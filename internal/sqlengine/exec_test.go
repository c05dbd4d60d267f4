package sqlengine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// newTestDB builds an engine with a small social-events schema and returns
// a session on it.
func newTestDB(t *testing.T) *Session {
	t.Helper()
	eng := NewEngine()
	if err := eng.CreateDatabase("app", false); err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession("app")
	for _, ddl := range []string{
		`CREATE TABLE users (id BIGINT PRIMARY KEY, name VARCHAR(50) NOT NULL, karma INT)`,
		`CREATE TABLE events (id BIGINT PRIMARY KEY, creator_id BIGINT, title VARCHAR(100),
			score DOUBLE, created TIMESTAMP, INDEX idx_creator (creator_id))`,
	} {
		if _, err := s.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	for i := 1; i <= 10; i++ {
		if _, err := s.Exec("INSERT INTO users (id, name, karma) VALUES (?, ?, ?)",
			NewInt(int64(i)), NewString("user"+string(rune('a'+i-1))), NewInt(int64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 20; i++ {
		creator := (i % 10) + 1
		if _, err := s.Exec("INSERT INTO events (id, creator_id, title, score, created) VALUES (?, ?, ?, ?, ?)",
			NewInt(int64(i)), NewInt(int64(creator)), NewString("event "+string(rune('A'+i-1))),
			NewFloat(float64(i)/2), NewTime(int64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSelectByPrimaryKeyUsesIndex(t *testing.T) {
	s := newTestDB(t)
	res, err := s.Exec("SELECT name FROM users WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) != 1 || res.Set.Rows[0][0].String() != "userc" {
		t.Fatalf("rows: %+v", res.Set.Rows)
	}
	if !res.Stats.UsedIndex || res.Stats.RowsExamined != 1 {
		t.Fatalf("stats: %+v, want index lookup examining 1 row", res.Stats)
	}
}

func TestSelectFullScanStats(t *testing.T) {
	s := newTestDB(t)
	res, err := s.Exec("SELECT * FROM users WHERE karma > 50")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UsedIndex || res.Stats.RowsExamined != 10 {
		t.Fatalf("stats: %+v, want full scan of 10", res.Stats)
	}
	if len(res.Set.Rows) != 5 {
		t.Fatalf("returned %d rows, want 5", len(res.Set.Rows))
	}
	if res.Stats.RowsReturned != 5 {
		t.Fatalf("RowsReturned = %d", res.Stats.RowsReturned)
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	s := newTestDB(t)
	res, err := s.Exec("SELECT id FROM events WHERE creator_id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.UsedIndex {
		t.Fatalf("expected secondary index use, stats %+v", res.Stats)
	}
	if len(res.Set.Rows) != 2 { // events 3 and 13
		t.Fatalf("rows: %+v", res.Set.Rows)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	s := newTestDB(t)
	set, err := s.Query("SELECT id FROM events ORDER BY score DESC LIMIT 3 OFFSET 1")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{19, 18, 17}
	for i, r := range set.Rows {
		if r[0].Int() != want[i] {
			t.Fatalf("rows: %v, want ids %v", set.Rows, want)
		}
	}
}

func TestOrderByAlias(t *testing.T) {
	s := newTestDB(t)
	set, err := s.Query("SELECT id, score AS s FROM events ORDER BY s DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Int() != 20 {
		t.Fatalf("rows: %v", set.Rows)
	}
}

func TestAggregatesWholeTable(t *testing.T) {
	s := newTestDB(t)
	set, err := s.Query("SELECT COUNT(*), SUM(karma), MIN(karma), MAX(karma) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	r := set.Rows[0]
	if r[0].Int() != 10 || r[1].Int() != 550 || r[2].Int() != 10 || r[3].Int() != 100 {
		t.Fatalf("aggregates: %v", r)
	}
}

func TestAggregatesEmptyTable(t *testing.T) {
	s := newTestDB(t)
	set, err := s.Query("SELECT COUNT(*), SUM(karma) FROM users WHERE id > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Int() != 0 || !set.Rows[0][1].IsNull() {
		t.Fatalf("empty aggregates: %v", set.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	s := newTestDB(t)
	set, err := s.Query(`SELECT creator_id, COUNT(*) AS cnt FROM events
		GROUP BY creator_id HAVING COUNT(*) = 2 ORDER BY creator_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 10 {
		t.Fatalf("groups: %v", set.Rows)
	}
	if set.Rows[0][0].Int() != 1 || set.Rows[0][1].Int() != 2 {
		t.Fatalf("first group: %v", set.Rows[0])
	}
}

func TestInnerJoinWithIndex(t *testing.T) {
	s := newTestDB(t)
	res, err := s.Exec(`SELECT e.id, u.name FROM events e JOIN users u ON e.creator_id = u.id
		WHERE e.id = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) != 1 {
		t.Fatalf("rows: %v", res.Set.Rows)
	}
	if got := res.Set.Rows[0][1].String(); got != "userf" { // creator of event 5 is 6
		t.Fatalf("joined name: %q", got)
	}
	// PK candidates (1) + indexed join lookup (1): no full scans.
	if res.Stats.RowsExamined > 3 {
		t.Fatalf("join examined %d rows; index join not used", res.Stats.RowsExamined)
	}
}

func TestUpdateWithExpressionAndStats(t *testing.T) {
	s := newTestDB(t)
	res, err := s.Exec("UPDATE users SET karma = ? WHERE id = 2", NewInt(25))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RowsAffected != 1 || !res.Stats.UsedIndex {
		t.Fatalf("stats: %+v", res.Stats)
	}
	set, _ := s.Query("SELECT karma FROM users WHERE id = 2")
	if set.Rows[0][0].Int() != 25 {
		t.Fatalf("karma = %v", set.Rows[0][0])
	}
}

func TestUpdateMovesIndexEntries(t *testing.T) {
	s := newTestDB(t)
	if _, err := s.Exec("UPDATE events SET creator_id = 1 WHERE creator_id = 4"); err != nil {
		t.Fatal(err)
	}
	set, _ := s.Query("SELECT COUNT(*) FROM events WHERE creator_id = 1")
	if set.Rows[0][0].Int() != 4 {
		t.Fatalf("creator 1 now has %v events, want 4", set.Rows[0][0])
	}
	set, _ = s.Query("SELECT COUNT(*) FROM events WHERE creator_id = 4")
	if set.Rows[0][0].Int() != 0 {
		t.Fatalf("creator 4 still has %v events", set.Rows[0][0])
	}
}

func TestDeleteRemovesFromIndexes(t *testing.T) {
	s := newTestDB(t)
	res, err := s.Exec("DELETE FROM events WHERE creator_id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RowsAffected != 2 {
		t.Fatalf("deleted %d, want 2", res.Stats.RowsAffected)
	}
	set, _ := s.Query("SELECT COUNT(*) FROM events")
	if set.Rows[0][0].Int() != 18 {
		t.Fatalf("remaining: %v", set.Rows[0][0])
	}
}

func TestDuplicatePKRejected(t *testing.T) {
	s := newTestDB(t)
	_, err := s.Exec("INSERT INTO users (id, name) VALUES (1, 'dup')")
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
}

func TestNotNullEnforced(t *testing.T) {
	s := newTestDB(t)
	if _, err := s.Exec("INSERT INTO users (id, karma) VALUES (50, 1)"); err == nil {
		t.Fatal("NULL into NOT NULL column accepted")
	}
}

func TestMultiRowInsertAtomicity(t *testing.T) {
	s := newTestDB(t)
	_, err := s.Exec("INSERT INTO users (id, name) VALUES (60, 'a'), (1, 'dup')")
	if err == nil {
		t.Fatal("expected duplicate key error")
	}
	set, _ := s.Query("SELECT COUNT(*) FROM users WHERE id = 60")
	if set.Rows[0][0].Int() != 0 {
		t.Fatal("partial insert persisted after statement failure")
	}
}

func TestTransactionCommitAndRollback(t *testing.T) {
	s := newTestDB(t)
	mustExec := func(sql string, args ...Value) {
		t.Helper()
		if _, err := s.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("BEGIN")
	mustExec("INSERT INTO users (id, name) VALUES (70, 'txn')")
	mustExec("UPDATE users SET karma = 0 WHERE id = 1")
	mustExec("DELETE FROM users WHERE id = 2")
	mustExec("ROLLBACK")
	set, _ := s.Query("SELECT COUNT(*) FROM users")
	if set.Rows[0][0].Int() != 10 {
		t.Fatalf("rollback left %v users, want 10", set.Rows[0][0])
	}
	set, _ = s.Query("SELECT karma FROM users WHERE id = 1")
	if set.Rows[0][0].Int() != 10 {
		t.Fatalf("rollback did not restore karma: %v", set.Rows[0][0])
	}

	mustExec("BEGIN")
	mustExec("INSERT INTO users (id, name) VALUES (71, 'kept')")
	mustExec("COMMIT")
	set, _ = s.Query("SELECT COUNT(*) FROM users WHERE id = 71")
	if set.Rows[0][0].Int() != 1 {
		t.Fatal("committed insert lost")
	}
}

// logSQL appends the text of every write the commit hook receives to sink.
func logSQL(e *Engine, sink *[]string) {
	e.OnCommit = func(_ string, writes []LoggedWrite) {
		for _, w := range writes {
			*sink = append(*sink, w.Text())
		}
	}
}

func TestCommitHookAutocommit(t *testing.T) {
	s := newTestDB(t)
	var gotDB string
	var gotSQL []string
	var got []LoggedWrite
	s.eng.OnCommit = func(db string, writes []LoggedWrite) {
		gotDB = db
		got = append(got, writes...)
		for _, w := range writes {
			gotSQL = append(gotSQL, w.Text())
		}
	}
	args := []Value{NewInt(80), NewString("hook")}
	if _, err := s.Exec("INSERT INTO users (id, name) VALUES (?, ?)", args...); err != nil {
		t.Fatal(err)
	}
	if gotDB != "app" || len(gotSQL) != 1 {
		t.Fatalf("hook got db=%q sqls=%v", gotDB, gotSQL)
	}
	if !strings.Contains(gotSQL[0], "80") || !strings.Contains(gotSQL[0], "'hook'") {
		t.Fatalf("hook SQL not interpolated: %s", gotSQL[0])
	}
	// The write is its prepared form: the parameterised text and a copy of
	// the arguments the caller is free to reuse, the text rendered from them.
	args[0] = NewInt(-1)
	if w := got[0]; w.SQL != "" || w.Stmt != "INSERT INTO users (id, name) VALUES (?, ?)" || len(w.Args) != 2 ||
		w.Args[0].Int() != 80 || w.Text() != gotSQL[0] || w.TextLen() != len(gotSQL[0]) {
		t.Fatalf("hook prepared form: %+v", w)
	}
	// Reads never hit the hook.
	gotSQL = nil
	if _, err := s.Exec("SELECT * FROM users"); err != nil {
		t.Fatal(err)
	}
	if len(gotSQL) != 0 {
		t.Fatalf("read reached commit hook: %v", gotSQL)
	}
}

// A logged write's arguments live in the engine's argument chunks. Writes
// logged across several chunks, one argument vector reused for all of them as
// a client reuses its own, with a rolled-back transaction between them: every
// committed write still renders the text it ran with when all are done.
func TestLoggedArgsOutliveTheirChunk(t *testing.T) {
	s := newTestDB(t)
	var logged []LoggedWrite
	s.eng.OnCommit = func(_ string, writes []LoggedWrite) { logged = append(logged, writes...) }
	st, err := s.eng.Prepare("INSERT INTO users (id, name) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	args := make([]Value, 2)
	text := func(id int) string { return fmt.Sprintf("INSERT INTO users (id, name) VALUES (%d, 'n%d')", id, id) }
	var committed []int
	insert := func(id int) {
		args[0], args[1] = NewInt(int64(id)), NewString(fmt.Sprintf("n%d", id))
		if _, err := st.Run(s, args...); err != nil {
			t.Fatal(err)
		}
		if !s.inTxn {
			committed = append(committed, id)
		}
	}
	const rounds = argChunk // two values a write: two chunks' worth, plus the rolled-back writes
	for id := 100; id < 100+rounds/2; id++ {
		insert(id)
	}
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for id := 5000; id < 5000+rounds/4; id++ {
		insert(id)
	}
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	for id := 100 + rounds/2; id < 100+rounds+1; id++ {
		insert(id)
	}
	if len(logged) != len(committed) {
		t.Fatalf("%d writes logged, %d committed", len(logged), len(committed))
	}
	for i, w := range logged {
		if got, want := w.Text(), text(committed[i]); got != want || w.TextLen() != len(want) {
			t.Fatalf("write %d of %d renders %q (%d bytes), want %q", i, len(logged), got, w.TextLen(), want)
		}
	}
}

func TestCommitHookTransactionBuffersUntilCommit(t *testing.T) {
	s := newTestDB(t)
	var got []string
	logSQL(s.eng, &got)
	s.Exec("BEGIN")
	s.Exec("INSERT INTO users (id, name) VALUES (81, 'a')")
	s.Exec("UPDATE users SET karma = 1 WHERE id = 81")
	if len(got) != 0 {
		t.Fatalf("hook fired before COMMIT: %v", got)
	}
	s.Exec("COMMIT")
	if len(got) != 2 {
		t.Fatalf("hook got %v, want both statements in order", got)
	}
	if !strings.HasPrefix(got[0], "INSERT") || !strings.HasPrefix(got[1], "UPDATE") {
		t.Fatalf("commit order wrong: %v", got)
	}
}

func TestRolledBackStatementsNeverReachHook(t *testing.T) {
	s := newTestDB(t)
	var got []string
	logSQL(s.eng, &got)
	s.Exec("BEGIN")
	s.Exec("INSERT INTO users (id, name) VALUES (82, 'x')")
	s.Exec("ROLLBACK")
	if len(got) != 0 {
		t.Fatalf("rolled-back write reached hook: %v", got)
	}
}

func TestTimeBuiltinUsesEngineClock(t *testing.T) {
	s := newTestDB(t)
	now := int64(1234567)
	s.eng.NowMicros = func() int64 { return now }
	const q = "SELECT UTC_MICROS() FROM users WHERE id = 1"
	set, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Micros() != 1234567 {
		t.Fatalf("UTC_MICROS = %v", set.Rows[0][0])
	}
	now = 999
	set, _ = s.Query(q)
	if set.Rows[0][0].Micros() != 999 {
		t.Fatalf("UTC_MICROS did not re-read the clock: %v", set.Rows[0][0])
	}
}

func TestNullComparisonsFilterRows(t *testing.T) {
	s := newTestDB(t)
	if _, err := s.Exec("INSERT INTO users (id, name, karma) VALUES (90, 'nil', NULL)"); err != nil {
		t.Fatal(err)
	}
	set, _ := s.Query("SELECT COUNT(*) FROM users WHERE karma > 0")
	if set.Rows[0][0].Int() != 10 { // NULL karma row excluded
		t.Fatalf("count: %v", set.Rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	s := newTestDB(t)
	set, err := s.Query("SELECT DISTINCT creator_id FROM events ORDER BY creator_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 10 {
		t.Fatalf("distinct rows: %d", len(set.Rows))
	}
}

func TestInAndBetween(t *testing.T) {
	s := newTestDB(t)
	set, _ := s.Query("SELECT COUNT(*) FROM users WHERE id IN (1, 3, 5)")
	if set.Rows[0][0].Int() != 3 {
		t.Fatalf("IN count: %v", set.Rows[0][0])
	}
}

func TestVarcharTruncation(t *testing.T) {
	eng := NewEngine()
	eng.CreateDatabase("d", false)
	s := eng.NewSession("d")
	s.Exec("CREATE TABLE t (x VARCHAR(3))")
	s.Exec("INSERT INTO t (x) VALUES ('abcdef')")
	set, _ := s.Query("SELECT x FROM t")
	if set.Rows[0][0].String() != "abc" {
		t.Fatalf("stored: %q", set.Rows[0][0].String())
	}
}

func TestUseSwitchesDatabase(t *testing.T) {
	eng := NewEngine()
	eng.CreateDatabase("a", false)
	eng.CreateDatabase("b", false)
	s := eng.NewSession("a")
	s.Exec("CREATE TABLE t (x INT)")
	if _, err := s.Exec("USE b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT * FROM t"); err == nil {
		t.Fatal("table from database a visible after USE b")
	}
	// Qualified access still works.
	if _, err := s.Exec("SELECT * FROM a.t"); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownColumnAndTableErrors(t *testing.T) {
	s := newTestDB(t)
	for _, sql := range []string{
		"SELECT nope FROM users",
		"SELECT * FROM nope",
		"INSERT INTO users (nope) VALUES (1)",
		"UPDATE users SET nope = 1",
		"SELECT * FROM users WHERE nope = 1",
		// Resolution must not depend on a row reaching the evaluator: no
		// row matches, a false conjunct short-circuits, the table is empty.
		"SELECT nope FROM users WHERE id = -5",
		"SELECT id FROM users WHERE id = -5 AND nope = 1",
		"SELECT id FROM users WHERE 1 = 0 AND nope = 1",
		"SELECT id FROM users ORDER BY nope",
		"SELECT karma, COUNT(*) FROM users WHERE id = -5 GROUP BY nope",
		"SELECT u.nope FROM users u WHERE u.id = -5",
		"SELECT x.id FROM users u WHERE u.id = -5",
		"SELECT e.id FROM users u JOIN events e ON e.nope = u.id WHERE u.id = -5",
	} {
		_, err := s.Exec(sql)
		if err == nil {
			t.Errorf("%s: expected error", sql)
		} else if !strings.Contains(err.Error(), "unknown") {
			t.Errorf("%s: error %q does not name the unknown reference", sql, err)
		}
	}
	if _, err := s.Exec("DELETE FROM events"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT nope FROM events"); err == nil || err.Error() != "sqlengine: unknown column nope" {
		t.Errorf("unknown column over an empty table: %v", err)
	}
}

// TestFunctionBindsWhenPlanned: a call binds to its builtin when the plan is
// built, so an unknown name or a wrong argument count fails although no row
// ever evaluates the call — in a SELECT and in a write plan alike.
func TestFunctionBindsWhenPlanned(t *testing.T) {
	s := newTestDB(t)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT NOSUCH(name) FROM users WHERE id = -5", "sqlengine: unknown function NOSUCH"},
		{"SELECT id FROM users WHERE 1 = 0 AND NOSUCH(id) = 1", "sqlengine: unknown function NOSUCH"},
		{"SELECT UTC_MICROS(name, name) FROM users WHERE id = -5", "sqlengine: UTC_MICROS expects 0 arguments, got 2"},
		{"UPDATE users SET name = NOSUCH(name) WHERE id = -5", "sqlengine: unknown function NOSUCH"},
		{"DELETE FROM users WHERE id = -5 AND UTC_MICROS(id) = 1", "sqlengine: UTC_MICROS expects 0 arguments, got 1"},
		// UTC_MICROS is the one builtin the dialect keeps: every other one
		// it had, and AVG, is an unknown function now.
		{"SELECT CONCAT(name, 'x') FROM users WHERE id = -5", "sqlengine: unknown function CONCAT"},
		{"SELECT LOWER(name) FROM users WHERE id = -5", "sqlengine: unknown function LOWER"},
		{"SELECT UPPER(name) FROM users WHERE id = -5", "sqlengine: unknown function UPPER"},
		{"SELECT LENGTH(name) FROM users WHERE id = -5", "sqlengine: unknown function LENGTH"},
		{"SELECT ABS(karma) FROM users WHERE id = -5", "sqlengine: unknown function ABS"},
		{"SELECT COALESCE(karma, 0) FROM users WHERE id = -5", "sqlengine: unknown function COALESCE"},
		{"SELECT IF(karma, 1, 2) FROM users WHERE id = -5", "sqlengine: unknown function IF"},
		{"SELECT SUBSTR(name, 2) FROM users WHERE id = -5", "sqlengine: unknown function SUBSTR"},
		{"SELECT SUBSTRING(name, 2, 1) FROM users WHERE id = -5", "sqlengine: unknown function SUBSTRING"},
		{"SELECT MOD(karma, 3) FROM users WHERE id = -5", "sqlengine: unknown function MOD"},
		{"SELECT FLOOR(karma) FROM users WHERE id = -5", "sqlengine: unknown function FLOOR"},
		{"SELECT CEIL(karma) FROM users WHERE id = -5", "sqlengine: unknown function CEIL"},
		{"SELECT CEILING(karma) FROM users WHERE id = -5", "sqlengine: unknown function CEILING"},
		{"SELECT NOW() FROM users WHERE id = -5", "sqlengine: unknown function NOW"},
		{"SELECT CURRENT_TIMESTAMP() FROM users WHERE id = -5", "sqlengine: unknown function CURRENT_TIMESTAMP"},
		{"SELECT UTC_TIMESTAMP() FROM users WHERE id = -5", "sqlengine: unknown function UTC_TIMESTAMP"},
		{"SELECT AVG(karma) FROM users WHERE id = -5", "sqlengine: unknown function AVG"},
	} {
		if _, err := s.Exec(tc.sql); err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %s", tc.sql, err, tc.want)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	s := newTestDB(t)
	for _, sql := range []string{
		"SELECT id FROM users u JOIN events e ON u.id = e.creator_id",
		"SELECT u.id FROM users u JOIN events e ON u.id = e.creator_id WHERE u.id = -5 ORDER BY id",
		"SELECT u.id FROM users u JOIN events e ON u.id = e.creator_id WHERE 1 = 0 AND id = 1",
	} {
		if _, err := s.Exec(sql); err == nil || err.Error() != "sqlengine: ambiguous column id" {
			t.Errorf("%s: want ambiguous-column error, got %v", sql, err)
		}
	}
}

// TestNegativeLimitOffsetRejected: a negative LIMIT used to panic inside the
// engine lock (slicing rows[:-1]) and a negative OFFSET shortened an ordered
// result by one row; both are errors now, ordered or not.
func TestNegativeLimitOffsetRejected(t *testing.T) {
	s := newTestDB(t)
	for _, sql := range []string{
		"SELECT id FROM events LIMIT ?",
		"SELECT id FROM events ORDER BY id LIMIT ?",
		"SELECT id FROM events LIMIT 5 OFFSET ?",
		"SELECT id FROM events ORDER BY id LIMIT 5 OFFSET ?",
	} {
		if _, err := s.Exec(sql, NewInt(-1)); err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Errorf("%s with -1: want a negative-bound error, got %v", sql, err)
		}
		if res, err := s.Exec(sql, NewInt(2)); err != nil || res.Stats.RowsReturned == 0 {
			t.Errorf("%s with 2: %v", sql, err)
		}
	}
}

// TestResultRowsDoNotAliasPlanState: a caller scribbling over a returned
// ResultSet's rows must not change what the same plan returns next — nothing
// in a Result may alias plan scratch or a stored row image.
func TestResultRowsDoNotAliasPlanState(t *testing.T) {
	s := newTestDB(t)
	for _, sql := range []string{
		"SELECT * FROM users WHERE id = 3",
		"SELECT * FROM users u JOIN events e ON e.creator_id = u.id WHERE u.id = 1",
		"SELECT name, karma FROM users ORDER BY karma DESC LIMIT 3",
		"SELECT creator_id, COUNT(*) AS cnt, MAX(title) FROM events GROUP BY creator_id ORDER BY creator_id",
		"SELECT DISTINCT creator_id FROM events",
	} {
		st, err := s.eng.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		first, err := st.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := canonRows(first.Set, true)
		for _, r := range first.Set.Rows {
			for i := range r {
				r[i] = NewString("scribble")
			}
		}
		again, err := st.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := canonRows(again.Set, true); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: second execution changed after the first result was mutated\n got %q\nwant %q", sql, got, want)
		}
	}
	// The stored rows themselves must be untouched too.
	set, err := s.Query("SELECT name FROM users WHERE id = 3")
	if err != nil || set.Rows[0][0].String() != "userc" {
		t.Fatalf("stored row changed: %v %v", set, err)
	}
}

func TestParseCacheReuse(t *testing.T) {
	s := newTestDB(t)
	const q = "SELECT name FROM users WHERE id = ?"
	if _, err := s.Exec(q, NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.eng.parseCache[q]; !ok {
		t.Fatal("statement not cached")
	}
	// Second execution with different args must not be polluted by the
	// first binding.
	set, err := s.Query(q, NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].String() != "userb" {
		t.Fatalf("cached statement returned stale binding: %v", set.Rows[0][0])
	}
}

// explainText renders the plan the session would run sql with.
func explainText(t *testing.T, s *Session, sql string) string {
	t.Helper()
	st, err := s.eng.Prepare(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	p, err := st.Plan(s)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return p.Explain()
}

func TestExplainAccessPaths(t *testing.T) {
	s := newTestDB(t)
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT * FROM users WHERE id = 3", "index_scan users via PRIMARY on (id = 3)"},
		{"SELECT * FROM events WHERE creator_id = 4", "index_scan events via idx_creator on (creator_id = 4)"},
		{"SELECT * FROM users WHERE karma > 10", "scan users"},
	}
	for _, tc := range cases {
		if got := explainText(t, s, tc.sql); !strings.Contains(got, tc.want) {
			t.Errorf("%s:\n%s\nwant access %q", tc.sql, got, tc.want)
		}
	}
}

func TestExplainJoinShowsIndexedLookup(t *testing.T) {
	s := newTestDB(t)
	got := explainText(t, s, "SELECT e.id FROM users u JOIN events e ON e.creator_id = u.id WHERE u.id = 1")
	if !strings.Contains(got, "index_scan u via PRIMARY on (id = 1)") {
		t.Errorf("driving access not a PRIMARY lookup:\n%s", got)
	}
	if !strings.Contains(got, "inl_join e via idx_creator") {
		t.Errorf("join not an indexed nested loop:\n%s", got)
	}
}

func TestExplainWithParams(t *testing.T) {
	s := newTestDB(t)
	got := explainText(t, s, "SELECT * FROM users WHERE id = ?")
	if !strings.Contains(got, "index_scan users via PRIMARY on (id = ?)") {
		t.Errorf("parameterized plan not an index lookup:\n%s", got)
	}
}

func TestOrderByMultipleMixedKeys(t *testing.T) {
	s := newTestDB(t)
	set, err := s.Query("SELECT creator_id, id FROM events ORDER BY creator_id ASC, id DESC LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	// creator 1 has events 10 and 20; creator 2 has 1 and 11.
	want := [][2]int64{{1, 20}, {1, 10}, {2, 11}, {2, 1}}
	for i, w := range want {
		if set.Rows[i][0].Int() != w[0] || set.Rows[i][1].Int() != w[1] {
			t.Fatalf("row %d = %v, want %v (full: %v)", i, set.Rows[i], w, set.Rows)
		}
	}
}

func TestSelectStarWithJoinProjectsAllColumns(t *testing.T) {
	s := newTestDB(t)
	set, err := s.Query("SELECT * FROM users u JOIN events e ON e.creator_id = u.id WHERE u.id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Columns) != 3+5 {
		t.Fatalf("columns: %v", set.Columns)
	}
	if len(set.Rows) != 2 {
		t.Fatalf("rows: %d", len(set.Rows))
	}
}

func TestUpdateWithoutWhereTouchesAllRows(t *testing.T) {
	s := newTestDB(t)
	res, err := s.Exec("UPDATE users SET karma = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RowsAffected != 10 {
		t.Fatalf("affected %d", res.Stats.RowsAffected)
	}
	set, _ := s.Query("SELECT SUM(karma) FROM users")
	if set.Rows[0][0].Int() != 10 {
		t.Fatalf("sum: %v", set.Rows[0][0])
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := newTestDB(t)
	snap := src.eng.Snapshot()
	if snap.NumRows() != 30 {
		t.Fatalf("snapshot rows: %d, want 30", snap.NumRows())
	}

	dst := NewEngine()
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	ds := dst.NewSession("app")
	// Data equality.
	for _, q := range []string{
		"SELECT COUNT(*) FROM users",
		"SELECT COUNT(*) FROM events",
		"SELECT name FROM users WHERE id = 7",
		"SELECT title FROM events WHERE id = 13",
	} {
		a, err := src.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ds.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rows[0][0].String() != b.Rows[0][0].String() {
			t.Fatalf("%s: %v vs %v", q, a.Rows[0][0], b.Rows[0][0])
		}
	}
	// Constraints survive: PK enforced, secondary index usable.
	if _, err := ds.Exec("INSERT INTO users (id, name) VALUES (1, 'dup')"); err == nil {
		t.Fatal("restored PK not enforced")
	}
	res, err := ds.Exec("SELECT id FROM events WHERE creator_id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.UsedIndex {
		t.Fatal("restored secondary index not used")
	}
	// The copy is deep: mutating the restore leaves the source untouched.
	ds.Exec("DELETE FROM users WHERE id = 7")
	a, _ := src.Query("SELECT COUNT(*) FROM users")
	if a.Rows[0][0].Int() != 10 {
		t.Fatal("restore shares storage with source")
	}
}
