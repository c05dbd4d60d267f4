package shard

import (
	"testing"

	"cloudrepl/internal/sqlengine"
)

func testKS() Keyspace {
	return Keyspace{
		Key:    map[string]string{"events": "id", "attendance": "event_id", "users": "id"},
		Global: map[string]bool{"tags": true},
	}
}

func TestAnalyzeRouting(t *testing.T) {
	ks := testKS()
	cases := []struct {
		sql   string
		kind  routeKind
		write bool
	}{
		{"SELECT * FROM events WHERE id = ?", routeSingle, false},
		{"SELECT * FROM events WHERE id = 7", routeSingle, false},
		{"SELECT * FROM events WHERE 3 = id", routeSingle, false},
		{"SELECT user_id FROM attendance WHERE event_id = ? AND user_id > 2", routeSingle, false},
		// Co-located join pinned by either side's key.
		{"SELECT e.id FROM events e JOIN attendance a ON a.event_id = e.id WHERE e.id = ?", routeSingle, false},
		{"SELECT e.id FROM events e JOIN attendance a ON a.event_id = e.id WHERE a.event_id = ?", routeSingle, false},
		// No key equality: scatter.
		{"SELECT id, title FROM events ORDER BY created DESC LIMIT 10", routeScatter, false},
		{"SELECT id FROM events WHERE creator_id = ?", routeScatter, false},
		{"SELECT id FROM events WHERE id > 5", routeScatter, false},
		// Global / table-less: any one cell.
		{"SELECT name FROM tags", routeAny, false},
		{"SELECT 1", routeAny, false},
		// Writes.
		{"INSERT INTO events (id, title) VALUES (?, ?)", routeSingle, true},
		{"UPDATE events SET title = ? WHERE id = ?", routeSingle, true},
		{"DELETE FROM attendance WHERE event_id = 9", routeSingle, true},
		{"UPDATE events SET title = ? WHERE created < ?", routeBroadcast, true},
		{"INSERT INTO tags (id, name) VALUES (?, ?)", routeBroadcast, true},
		{"CREATE TABLE x (id BIGINT PRIMARY KEY)", routeBroadcast, true},
	}
	for _, tc := range cases {
		ri := analyze(tc.sql, ks)
		if ri.err != nil {
			t.Errorf("%s: err %v", tc.sql, ri.err)
			continue
		}
		if ri.kind != tc.kind || ri.write != tc.write {
			t.Errorf("%s: kind=%d write=%v, want kind=%d write=%v", tc.sql, ri.kind, ri.write, tc.kind, tc.write)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ks := testKS()
	for _, sql := range []string{
		"INSERT INTO events (title) VALUES (?)",                                 // shard key omitted
		"SELECT creator_id FROM events GROUP BY creator_id HAVING COUNT(*) > 1", // HAVING on scatter
		"SELECT id FROM events LIMIT ?",                                         // parameterized LIMIT on scatter
		"SELECT COUNT(*) FROM events GROUP BY creator_id",                       // partial rows would carry no key to meet on
	} {
		if ri := analyze(sql, ks); ri.err == nil {
			t.Errorf("%s: expected routing error", sql)
		}
	}
}

func TestResolveKeysMultiRowInsert(t *testing.T) {
	ks := testKS()
	ri := analyze("INSERT INTO events (id, title) VALUES (?, ?), (41, 'x')", ks)
	if ri.err != nil {
		t.Fatal(ri.err)
	}
	keys, err := ri.resolveKeys(nil, []sqlengine.Value{sqlengine.NewInt(40), sqlengine.NewString("a")})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != 40 || keys[1] != 41 {
		t.Fatalf("keys = %v", keys)
	}
	if _, err := ri.resolveKeys(nil, []sqlengine.Value{sqlengine.NewString("oops")}); err == nil {
		t.Fatal("non-integer key argument not rejected")
	}
}

// mergeSets runs a route's merge over sets.
func mergeSets(plan *sqlengine.Merge, sets ...*sqlengine.ResultSet) (*sqlengine.ResultSet, error) {
	out := &sqlengine.ResultSet{}
	return out, plan.Run(sets, out)
}

func rows(vals ...int64) [][]sqlengine.Value {
	out := make([][]sqlengine.Value, len(vals))
	for i, v := range vals {
		out[i] = []sqlengine.Value{sqlengine.NewInt(v)}
	}
	return out
}

// TestMergePlainOrderLimit: the per-cell statement pushes LIMIT+OFFSET down
// and the merge sorts, offsets and limits globally.
func TestMergePlainOrderLimit(t *testing.T) {
	ri := analyze("SELECT id FROM events ORDER BY id DESC LIMIT 3 OFFSET 1", testKS())
	if ri.err != nil || ri.kind != routeScatter {
		t.Fatalf("route: %+v", ri)
	}
	// Each cell must be asked for limit+offset rows.
	if want := "SELECT id FROM events ORDER BY id DESC LIMIT 4"; ri.plan.CellSQL != want {
		t.Fatalf("CellSQL %q, want %q", ri.plan.CellSQL, want)
	}
	// Legs arrive the way the cells return them: sorted by the ORDER BY.
	merged, err := mergeSets(ri.plan,
		&sqlengine.ResultSet{Columns: []string{"id"}, Rows: rows(9, 5, 1)},
		&sqlengine.ResultSet{Columns: []string{"id"}, Rows: rows(7, 3)},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{7, 5, 3} // desc 9 7 5 3 1, offset 1, limit 3
	if len(merged.Rows) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(merged.Rows), len(want))
	}
	for i, w := range want {
		if merged.Rows[i][0].Int() != w {
			t.Fatalf("row %d = %d, want %d", i, merged.Rows[i][0].Int(), w)
		}
	}
}

// TestMergeHelperColumn: ordering by an unprojected column appends it to the
// per-cell projection and strips it after the sort.
func TestMergeHelperColumn(t *testing.T) {
	ri := analyze("SELECT title FROM events ORDER BY created DESC LIMIT 2", testKS())
	if ri.err != nil {
		t.Fatal(ri.err)
	}
	if want := "SELECT title, created FROM events ORDER BY created DESC LIMIT 2"; ri.plan.CellSQL != want {
		t.Fatalf("CellSQL %q, want %q", ri.plan.CellSQL, want)
	}
	mk := func(title string, created int64) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewString(title), sqlengine.NewInt(created)}
	}
	merged, err := mergeSets(ri.plan,
		&sqlengine.ResultSet{Columns: []string{"title", "created"}, Rows: [][]sqlengine.Value{mk("new", 9), mk("old", 1)}},
		&sqlengine.ResultSet{Columns: []string{"title", "created"}, Rows: [][]sqlengine.Value{mk("mid", 5)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Columns) != 1 || merged.Columns[0] != "title" {
		t.Fatalf("columns = %v, want [title]", merged.Columns)
	}
	if len(merged.Rows) != 2 || merged.Rows[0][0].String() != "new" || merged.Rows[1][0].String() != "mid" {
		t.Fatalf("rows = %v", merged.Rows)
	}
}

// TestMergeSelectStarByName: SELECT * resolves order columns against the
// result header at merge time.
func TestMergeSelectStarByName(t *testing.T) {
	ri := analyze("SELECT * FROM events ORDER BY created", testKS())
	if ri.err != nil {
		t.Fatal(ri.err)
	}
	mk := func(id, created int64) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewInt(id), sqlengine.NewInt(created)}
	}
	merged, err := mergeSets(ri.plan,
		&sqlengine.ResultSet{Columns: []string{"id", "created"}, Rows: [][]sqlengine.Value{mk(1, 30)}},
		&sqlengine.ResultSet{Columns: []string{"id", "created"}, Rows: [][]sqlengine.Value{mk(2, 10)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Rows[0][0].Int() != 2 || merged.Rows[1][0].Int() != 1 {
		t.Fatalf("rows = %v", merged.Rows)
	}
}

// TestMergeAggregates: COUNT/SUM add across cells, MIN/MAX compare, group
// rows fold by key, and ORDER BY/LIMIT re-apply after re-aggregation.
func TestMergeAggregates(t *testing.T) {
	ri := analyze("SELECT tag_id, COUNT(*) AS cnt FROM attendance GROUP BY tag_id ORDER BY cnt DESC LIMIT 2", testKS())
	if ri.err != nil {
		t.Fatal(ri.err)
	}
	// Per-cell statements must not carry ORDER BY/LIMIT (partial counts
	// sort wrong) — check by re-parsing the rewrite.
	stmt, err := sqlengine.Parse(ri.plan.CellSQL)
	if err != nil {
		t.Fatalf("CellSQL %q: %v", ri.plan.CellSQL, err)
	}
	sel := stmt.(*sqlengine.SelectStmt)
	if sel.OrderBy != nil || sel.Limit != nil {
		t.Fatalf("CellSQL kept ORDER BY/LIMIT: %q", ri.plan.CellSQL)
	}
	mk := func(tag, n int64) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewInt(tag), sqlengine.NewInt(n)}
	}
	merged, err := mergeSets(ri.plan,
		&sqlengine.ResultSet{Columns: []string{"tag_id", "cnt"}, Rows: [][]sqlengine.Value{mk(1, 4), mk(2, 1)}},
		&sqlengine.ResultSet{Columns: []string{"tag_id", "cnt"}, Rows: [][]sqlengine.Value{mk(2, 9), mk(3, 2)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Rows) != 2 {
		t.Fatalf("rows = %v", merged.Rows)
	}
	if merged.Rows[0][0].Int() != 2 || merged.Rows[0][1].Int() != 10 {
		t.Fatalf("top group = %v, want tag 2 cnt 10", merged.Rows[0])
	}
	if merged.Rows[1][0].Int() != 1 || merged.Rows[1][1].Int() != 4 {
		t.Fatalf("second group = %v, want tag 1 cnt 4", merged.Rows[1])
	}
}

func TestMergeMinMax(t *testing.T) {
	ri := analyze("SELECT MIN(id), MAX(id) FROM events", testKS())
	if ri.err != nil {
		t.Fatal(ri.err)
	}
	mk := func(lo, hi int64) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewInt(lo), sqlengine.NewInt(hi)}
	}
	merged, err := mergeSets(ri.plan,
		&sqlengine.ResultSet{Columns: []string{"MIN(id)", "MAX(id)"}, Rows: [][]sqlengine.Value{mk(4, 90)}},
		&sqlengine.ResultSet{Columns: []string{"MIN(id)", "MAX(id)"}, Rows: [][]sqlengine.Value{mk(2, 60)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Rows[0][0].Int() != 2 || merged.Rows[0][1].Int() != 90 {
		t.Fatalf("min/max = %v", merged.Rows[0])
	}
}

func TestMergeDistinct(t *testing.T) {
	ri := analyze("SELECT DISTINCT creator_id FROM events ORDER BY creator_id", testKS())
	if ri.err != nil {
		t.Fatal(ri.err)
	}
	merged, err := mergeSets(ri.plan,
		&sqlengine.ResultSet{Columns: []string{"creator_id"}, Rows: rows(1, 3)},
		&sqlengine.ResultSet{Columns: []string{"creator_id"}, Rows: rows(1, 2, 3)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Rows) != 3 {
		t.Fatalf("distinct rows = %v", merged.Rows)
	}
	for i, w := range []int64{1, 2, 3} {
		if merged.Rows[i][0].Int() != w {
			t.Fatalf("row %d = %v", i, merged.Rows[i])
		}
	}
}
