package sqlengine

import (
	"sort"
	"strings"
	"testing"
)

// newJoinDB builds a schema shaped so that join-algorithm choice matters:
// orders (100 rows) joins items (100 rows, 10 per key) on an indexed,
// non-unique column.
func newJoinDB(t *testing.T) *Session {
	t.Helper()
	eng := NewEngine()
	if err := eng.CreateDatabase("shop", false); err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession("shop")
	for _, ddl := range []string{
		`CREATE TABLE orders (id BIGINT PRIMARY KEY, buyer VARCHAR(20), total INT)`,
		`CREATE TABLE items (id BIGINT PRIMARY KEY, order_key BIGINT, sku VARCHAR(20),
			INDEX idx_order (order_key))`,
	} {
		if _, err := s.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	for i := 1; i <= 100; i++ {
		if _, err := s.Exec("INSERT INTO orders (id, buyer, total) VALUES (?, ?, ?)",
			NewInt(int64(i)), NewString("b"+string(rune('a'+i%26))), NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 100; i++ {
		if _, err := s.Exec("INSERT INTO items (id, order_key, sku) VALUES (?, ?, ?)",
			NewInt(int64(i)), NewInt(int64(i%10+1)), NewString("sku")); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestPlannerJoinAlgorithmFlips pins the cost model's central behaviour: the
// same join predicate plans as an index-nested-loop when the outer side is
// selective (few probes) and as a hash join when the outer side is the full
// table (probe volume exceeds build cost).
func TestPlannerJoinAlgorithmFlips(t *testing.T) {
	s := newJoinDB(t)
	selective := explainText(t, s,
		"EXPLAIN SELECT i.sku FROM orders o JOIN items i ON i.order_key = o.id WHERE o.id = 1")
	if !strings.Contains(selective, "inl_join") {
		t.Errorf("selective outer should use index nested loop:\n%s", selective)
	}
	full := explainText(t, s,
		"EXPLAIN SELECT i.sku FROM orders o JOIN items i ON i.order_key = o.id")
	if !strings.Contains(full, "hash_join") {
		t.Errorf("full outer should use hash join:\n%s", full)
	}
	if strings.Contains(full, "inl_join") {
		t.Errorf("full outer still uses index nested loop:\n%s", full)
	}
}

// TestPlannerPushdownReordersJoin checks that an unselective syntax order is
// rewritten: the WHERE predicate binds the second table, so the planner
// should drive from it rather than scanning the first.
func TestPlannerPushdownReordersJoin(t *testing.T) {
	s := newJoinDB(t)
	got := explainText(t, s,
		"EXPLAIN SELECT o.buyer FROM items i JOIN orders o ON i.order_key = o.id WHERE o.id = 5")
	lines := strings.Split(got, "\n")
	var driving string
	for _, l := range lines {
		driving = strings.TrimSpace(l) // last line is the driving access
	}
	if !strings.HasPrefix(driving, "index_scan o via PRIMARY") {
		t.Errorf("driving access should be orders PK lookup:\n%s", got)
	}
}

// differentialQueries is the planner-vs-naive corpus: every query must
// return byte-identical results under both planners (order-sensitive when
// ORDER BY is present, multiset-equal otherwise).
var differentialQueries = []string{
	"SELECT * FROM users",
	"SELECT name, karma FROM users WHERE id = 3",
	"SELECT * FROM users WHERE karma > 40 ORDER BY karma DESC",
	"SELECT * FROM users WHERE karma > 40 ORDER BY karma DESC LIMIT 3",
	"SELECT * FROM users WHERE karma > 40 ORDER BY karma DESC LIMIT 3 OFFSET 2",
	"SELECT u.name, e.title FROM users u JOIN events e ON e.creator_id = u.id",
	"SELECT u.name, e.title FROM users u JOIN events e ON e.creator_id = u.id WHERE u.id = 4 ORDER BY e.id",
	"SELECT u.name, e.title FROM events e JOIN users u ON e.creator_id = u.id WHERE u.karma > 30 ORDER BY e.id DESC",
	"SELECT u.name, e.title FROM users u LEFT JOIN events e ON e.creator_id = u.id AND e.score > 8 ORDER BY u.id, e.id",
	"SELECT creator_id, COUNT(*), AVG(score) FROM events GROUP BY creator_id ORDER BY creator_id",
	"SELECT creator_id, COUNT(*) FROM events GROUP BY creator_id HAVING COUNT(*) > 2 ORDER BY creator_id",
	"SELECT DISTINCT creator_id FROM events ORDER BY creator_id",
	"SELECT COUNT(*) FROM users WHERE karma BETWEEN 20 AND 70",
	"SELECT name FROM users WHERE name LIKE 'user%' ORDER BY name LIMIT 4",
	"SELECT u.name FROM users u JOIN events e ON e.creator_id = u.id AND e.score > 2 WHERE u.karma < 90 ORDER BY e.created DESC, u.id LIMIT 5",
	"SELECT e1.title FROM events e1 JOIN events e2 ON e1.creator_id = e2.creator_id WHERE e2.id = 7 ORDER BY e1.id",
	"SELECT u.id, COUNT(*) FROM users u JOIN events e ON e.creator_id = u.id GROUP BY u.id ORDER BY u.id",
	"SELECT * FROM users WHERE id IN (2, 4, 6) ORDER BY id",
	"SELECT name FROM users WHERE karma IS NULL",
	"SELECT 1 + 2, UPPER('x')",
}

func canonRows(set *ResultSet, ordered bool) []string {
	out := make([]string, 0, len(set.Rows))
	for _, r := range set.Rows {
		var b strings.Builder
		for _, v := range r {
			b.Write(v.hashKey().appendTo(nil))
		}
		out = append(out, b.String())
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// TestPlannerNaiveDifferential runs the corpus under the cost-based and the
// forced-naive planner and requires identical results.
func TestPlannerNaiveDifferential(t *testing.T) {
	for _, q := range differentialQueries {
		s := newTestDB(t)
		cost, err := s.Query(q)
		if err != nil {
			t.Fatalf("cost plan %s: %v", q, err)
		}
		s.eng.NaivePlan = true
		naive, err := s.Query(q)
		if err != nil {
			t.Fatalf("naive plan %s: %v", q, err)
		}
		ordered := strings.Contains(q, "ORDER BY")
		c, n := canonRows(cost, ordered), canonRows(naive, ordered)
		if len(c) != len(n) {
			t.Errorf("%s: cost %d rows, naive %d rows", q, len(c), len(n))
			continue
		}
		for i := range c {
			if c[i] != n[i] {
				t.Errorf("%s: row %d differs\ncost:  %q\nnaive: %q", q, i, c[i], n[i])
				break
			}
		}
	}
}

// TestPlannerDifferentialUnderSnapshotRead repeats a join query inside a
// snapshot-isolated transaction concurrent with later writes: both planners
// must degrade to chain-resolving scans and still agree.
func TestPlannerDifferentialUnderSnapshotRead(t *testing.T) {
	q := "SELECT u.name, e.title FROM users u JOIN events e ON e.creator_id = u.id WHERE u.id = 4 ORDER BY e.id"
	run := func(naive bool) []string {
		s := newTestDB(t)
		s.eng.NaivePlan = naive
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		// A concurrent writer advances the commit version past the reader.
		w := s.eng.NewSession("app")
		if _, err := w.Exec("INSERT INTO events (id, creator_id, title, score, created) VALUES (99, 4, 'late', 1.0, 1)"); err != nil {
			t.Fatal(err)
		}
		set, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("COMMIT"); err != nil {
			t.Fatal(err)
		}
		return canonRows(set, true)
	}
	c, n := run(false), run(true)
	if len(c) != len(n) {
		t.Fatalf("cost %d rows, naive %d rows", len(c), len(n))
	}
	for i := range c {
		if c[i] != n[i] {
			t.Fatalf("row %d differs under snapshot read", i)
		}
	}
	// The snapshot must also hide the concurrent insert entirely.
	for _, r := range c {
		if strings.Contains(r, "late") {
			t.Fatal("snapshot read saw concurrent insert")
		}
	}
}

// TestPlanCacheReuseAndInvalidation checks that repeated executions share
// one cached plan and that DDL and statistics drift retire it.
func TestPlanCacheReuseAndInvalidation(t *testing.T) {
	s := newTestDB(t)
	stmt, err := s.eng.Prepare("SELECT name FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := stmt.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := stmt.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second Plan call did not reuse the cached plan")
	}
	// Textual variants with identical structure share the plan.
	stmt2, err := s.eng.Prepare("select   name from users where id=?")
	if err != nil {
		t.Fatal(err)
	}
	p3, err := stmt2.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatalf("normalized variant got a different plan (norm %q vs %q)", stmt2.Norm(), stmt.Norm())
	}
	// DDL advances the catalog epoch: the cached plan must be rebuilt.
	if _, err := s.Exec("CREATE TABLE scratch (id BIGINT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	p4, err := stmt.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("plan survived a DDL epoch bump")
	}
}

// TestPlanCacheKeyedByMode ensures naive and cost plans never cross-pollute.
func TestPlanCacheKeyedByMode(t *testing.T) {
	s := newTestDB(t)
	q := "SELECT u.name FROM users u JOIN events e ON e.creator_id = u.id"
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	s.eng.NaivePlan = true
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	st, err := s.eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	s.eng.mu.Lock()
	modes := map[bool]int{}
	for _, p := range st.plans {
		modes[p.Naive()]++
	}
	s.eng.mu.Unlock()
	if modes[true] == 0 || modes[false] == 0 {
		t.Fatalf("expected both planner modes cached, got %v", modes)
	}
}

// TestExplainAnalyzeReportsActualRows checks that EXPLAIN ANALYZE executes
// and annotates operators with act= counts, and that plain EXPLAIN does not.
func TestExplainAnalyzeReportsActualRows(t *testing.T) {
	s := newTestDB(t)
	plain := explainText(t, s, "EXPLAIN SELECT * FROM users WHERE karma > 50")
	if strings.Contains(plain, "act=") {
		t.Errorf("plain EXPLAIN carries act counts:\n%s", plain)
	}
	analyzed := explainText(t, s, "EXPLAIN ANALYZE SELECT * FROM users WHERE karma > 50")
	if !strings.Contains(analyzed, "act=5") {
		t.Errorf("EXPLAIN ANALYZE missing actual counts:\n%s", analyzed)
	}
}

// TestExplainAnalyzeDoesNotMutate ensures EXPLAIN ANALYZE of a SELECT leaves
// table contents untouched (it executes the read, nothing else).
func TestExplainAnalyzeDoesNotMutate(t *testing.T) {
	s := newTestDB(t)
	if _, err := s.Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM users"); err != nil {
		t.Fatal(err)
	}
	set, err := s.Query("SELECT COUNT(*) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Int() != 10 {
		t.Fatalf("row count changed: %v", set.Rows)
	}
}

// TestPreparedStatementAPI exercises Prepare/Run/Query/Plan end to end and
// the deprecated Session.Exec shim's equivalence.
func TestPreparedStatementAPI(t *testing.T) {
	s := newTestDB(t)
	stmt, err := s.eng.Prepare("SELECT name FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	set, err := stmt.Query(s, NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Str() != "userc" {
		t.Fatalf("prepared query: %v", set.Rows)
	}
	// Same statement, different args: the shared plan must not leak state.
	set, err = stmt.Query(s, NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Str() != "usere" {
		t.Fatalf("second run: %v", set.Rows)
	}
	// Session.Exec is Prepare + the same run: the same result.
	shim, err := s.Query("SELECT name FROM users WHERE id = ?", NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if shim.Rows[0][0].Str() != set.Rows[0][0].Str() {
		t.Fatal("Session.Exec diverged from Statement.Run")
	}
	// Wrong arity errors match the bind-time contract.
	if _, err := stmt.Run(s); err == nil || !strings.Contains(err.Error(), "1 parameters but 0 arguments") {
		t.Fatalf("arity error: %v", err)
	}
	// Writes run through the same prepared handle.
	ins, err := s.eng.Prepare("INSERT INTO users (id, name, karma) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Run(s, NewInt(11), NewString("userk"), NewInt(110)); err != nil {
		t.Fatal(err)
	}
	set, err = stmt.Query(s, NewInt(11))
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Str() != "userk" {
		t.Fatalf("insert via prepared statement: %v", set.Rows)
	}
}

// TestHashJoinNullAndLeftSemantics pins hash-join edge rules: NULL keys
// never match, and LEFT joins null-extend at the same position a nested
// loop would.
func TestHashJoinNullAndLeftSemantics(t *testing.T) {
	s := newJoinDB(t)
	if _, err := s.Exec("INSERT INTO items (id, order_key, sku) VALUES (200, NULL, 'orphan')"); err != nil {
		t.Fatal(err)
	}
	// Full join: hash algorithm (see TestPlannerJoinAlgorithmFlips). The
	// NULL-keyed item must not match any order.
	set, err := s.Query("SELECT COUNT(*) FROM orders o JOIN items i ON i.order_key = o.id")
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Int() != 100 {
		t.Fatalf("inner join matched %d rows, want 100", set.Rows[0][0].Int())
	}
	// LEFT join keyed the other way: items with NULL keys null-extend.
	set, err = s.Query("SELECT COUNT(*) FROM items i LEFT JOIN orders o ON o.id = i.order_key WHERE o.id IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Int() != 1 {
		t.Fatalf("left join null-extended %d rows, want 1", set.Rows[0][0].Int())
	}
}

// TestStatsObserveAndAnalyze checks the incremental statistics lifecycle:
// plans see fresh NDV after enough drift.
func TestStatsObserveAndAnalyze(t *testing.T) {
	s := newJoinDB(t)
	// Force an analyze via planning.
	if _, err := s.Query("SELECT COUNT(*) FROM items WHERE order_key = 1"); err != nil {
		t.Fatal(err)
	}
	s.eng.mu.Lock()
	_, tbl, err := s.resolveTable(TableRef{Name: "items"})
	if err != nil {
		s.eng.mu.Unlock()
		t.Fatal(err)
	}
	analyzed := tbl.stats.analyzedRows
	s.eng.mu.Unlock()
	if analyzed != 101 && analyzed != 100 {
		t.Fatalf("analyzedRows = %d after planning", analyzed)
	}
	// Doubling the table forces re-analysis on next plan (drift > 20%).
	for i := 300; i < 420; i++ {
		if _, err := s.Exec("INSERT INTO items (id, order_key, sku) VALUES (?, ?, 'x')",
			NewInt(int64(i)), NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query("SELECT COUNT(*) FROM items WHERE order_key = 1"); err != nil {
		t.Fatal(err)
	}
	s.eng.mu.Lock()
	reanalyzed := tbl.stats.analyzedRows
	s.eng.mu.Unlock()
	if reanalyzed <= analyzed {
		t.Fatalf("stats not refreshed after drift: %d -> %d", analyzed, reanalyzed)
	}
}
