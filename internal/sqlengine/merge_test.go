package sqlengine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// A scatter is right when it returns what one engine holding every cell's rows
// returns: the same header, the same rows, in the same order. These tests hold
// sqlengine.Merge to that directly. Each fixture is a set of cell engines and
// one union engine loaded with cell 0's rows, then cell 1's, and so on — so
// the order rows arrive in inside the union engine is (cell, row in cell),
// which is the order a merge walks its legs in, and the two must then agree on
// every tie as well: equal sort keys, first-seen group order, which duplicate
// DISTINCT keeps, which rows an unordered LIMIT cuts.

// scatterStmt is one statement to run both ways.
type scatterStmt struct {
	sql  string
	args []sqlengine.Value
}

// scatterFixture is the sessions of the cell engines, in cell order, and of
// the engine that holds their union.
type scatterFixture struct {
	cells []*sqlengine.Session
	union *sqlengine.Session
}

func renderSet(set *sqlengine.ResultSet) string {
	var b strings.Builder
	fmt.Fprintln(&b, set.Columns)
	for _, r := range set.Rows {
		for _, v := range r {
			fmt.Fprintf(&b, "%s:%s|", v.Kind(), v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// mismatches runs every statement on the union engine and as a scatter over
// the cells — CellSQL on each, the sets handed to Run after walk has had its
// way with their order — and describes each statement whose two answers differ.
func (fx *scatterFixture) mismatches(t *testing.T, stmts []scatterStmt, walk func([]*sqlengine.ResultSet)) []string {
	t.Helper()
	var out []string
	for _, st := range stmts {
		parsed, err := sqlengine.Parse(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		m, err := sqlengine.NewMerge(parsed.(*sqlengine.SelectStmt))
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		want, err := fx.union.Exec(st.sql, st.args...)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		for round := 0; round < 2; round++ { // the second Run reuses the first's scratch
			sets := make([]*sqlengine.ResultSet, len(fx.cells))
			for i, cell := range fx.cells {
				res, err := cell.Exec(m.CellSQL, st.args...)
				if err != nil {
					t.Fatalf("cell %d: %s: %v", i, m.CellSQL, err)
				}
				sets[i] = res.Set
			}
			walk(sets)
			var got sqlengine.ResultSet
			if err := m.Run(sets, &got); err != nil {
				t.Fatalf("%s: merge: %v", st.sql, err)
			}
			if g, w := renderSet(&got), renderSet(want.Set); g != w {
				out = append(out, fmt.Sprintf("%s %v over %d cells\nscatter:\n%sone engine:\n%s", st.sql, st.args, len(fx.cells), g, w))
				break
			}
		}
	}
	return out
}

// cloudstoneFixture preloads the Cloudstone data set at scale, events and
// their children dealt to cells by event id as the shard keyspace deals them:
// one preload per cell, of its share. The union engine gets the schema, then
// each table's rows as the cells hold them, cell 0's first (tags, which every
// cell has, once) — a preload of everything would hold them in id order.
func cloudstoneFixture(t *testing.T, env *sim.Env, cells, scale int) *scatterFixture {
	t.Helper()
	c := cloud.New(env, cloud.Config{})
	at := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	exec := func(s *sqlengine.Session, sql string, args ...sqlengine.Value) *sqlengine.Result {
		t.Helper()
		res, err := s.Exec(sql, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	fx := &scatterFixture{union: sqlengine.NewEngine().NewSession("")}
	for _, sql := range cloudstone.DDL {
		exec(fx.union, sql)
	}
	exec(fx.union, "USE "+cloudstone.DatabaseName)
	for i := 0; i < cells; i++ {
		name := fmt.Sprint("cell", i)
		srv := server.New(env, name, c.Launch(name, cloud.Small, at), server.DefaultCostModel())
		owns := func(table string, key int64) bool { return table == "tags" || int(key)%cells == i }
		if err := cloudstone.PreloadOwned(scale, owns)(srv); err != nil {
			t.Fatal(err)
		}
		cell := srv.Eng.NewSession(cloudstone.DatabaseName)
		fx.cells = append(fx.cells, cell)
		for _, table := range []string{"users", "events", "attendance", "tags", "event_tags", "comments", "friends"} {
			if table == "tags" && i > 0 {
				continue
			}
			set := exec(cell, "SELECT * FROM "+table).Set
			insert := fmt.Sprintf("INSERT INTO %s (%s) VALUES (?%s)", table,
				strings.Join(set.Columns, ", "), strings.Repeat(", ?", len(set.Columns)-1))
			for _, row := range set.Rows {
				exec(fx.union, insert, row...)
			}
		}
	}
	return fx
}

// The statements a sharded Cloudstone run scatters (cloudstone/driver.go).
var cloudstoneScatters = []scatterStmt{
	{sql: "SELECT id, title, event_date FROM events ORDER BY created DESC LIMIT 10"},
	{sql: "SELECT id, title FROM events WHERE title LIKE ? LIMIT 10", args: []sqlengine.Value{sqlengine.NewString("%5 m%")}},
	{sql: "SELECT id, title FROM events WHERE title LIKE ? LIMIT 10", args: []sqlengine.Value{sqlengine.NewString("%Event%")}},
	{sql: "SELECT tag_id, COUNT(*) AS cnt FROM event_tags GROUP BY tag_id ORDER BY cnt DESC LIMIT 10"},
	{sql: "SELECT id, title FROM events WHERE creator_id IN (?, ?, ?) ORDER BY created DESC LIMIT 10",
		args: []sqlengine.Value{sqlengine.NewInt(22), sqlengine.NewInt(43), sqlengine.NewInt(4)}},
	{sql: "SELECT id, title FROM events WHERE creator_id = ?", args: []sqlengine.Value{sqlengine.NewInt(31)}},
	{sql: "SELECT e.id, e.title FROM event_tags et JOIN events e ON e.id = et.event_id WHERE et.tag_id = ? LIMIT 20",
		args: []sqlengine.Value{sqlengine.NewInt(7)}},
}

// seededFixture deals 90 rows of few-valued columns — so that ties, shared
// groups and duplicates are the rule — to cells at random.
func seededFixture(t *testing.T, rng *rand.Rand, cells int) *scatterFixture {
	t.Helper()
	open := func() *sqlengine.Session {
		eng := sqlengine.NewEngine()
		if err := eng.CreateDatabase("d", false); err != nil {
			t.Fatal(err)
		}
		s := eng.NewSession("d")
		if _, err := s.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, b DOUBLE, c VARCHAR(8), ts TIMESTAMP)"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	fx := &scatterFixture{union: open()}
	parts := make([][][]sqlengine.Value, cells)
	orNull := func(v sqlengine.Value) sqlengine.Value {
		if rng.Intn(6) == 0 {
			return sqlengine.Null
		}
		return v
	}
	for id := 1; id <= 90; id++ {
		row := []sqlengine.Value{sqlengine.NewInt(int64(id)),
			orNull(sqlengine.NewInt(int64(rng.Intn(5)))),
			orNull(sqlengine.NewFloat(float64(rng.Intn(6)) / 2)), // halves: sums are exact in any order
			orNull(sqlengine.NewString([]string{"x", "y", "Z", "10", "9", ""}[rng.Intn(6)])),
			orNull(sqlengine.NewTime(int64(rng.Intn(4)) * 1e6))}
		part := rng.Intn(cells)
		parts[part] = append(parts[part], row)
	}
	for _, rows := range parts {
		cell := open()
		for _, row := range rows {
			for _, s := range []*sqlengine.Session{cell, fx.union} {
				if _, err := s.Exec("INSERT INTO t (id, a, b, c, ts) VALUES (?, ?, ?, ?, ?)", row...); err != nil {
					t.Fatal(err)
				}
			}
		}
		fx.cells = append(fx.cells, cell)
	}
	return fx
}

// genScatter draws a statement of a shape NewMerge takes: rows (a column list
// or *, DISTINCT, ORDER BY over projected and unprojected columns) or groups
// (COUNT, SUM, MIN and MAX over zero to two keys, ordered by output columns),
// filtered and cut at random.
func genScatter(rng *rand.Rand) scatterStmt {
	cols := []string{"id", "a", "b", "c", "ts"}
	pick := func(from []string, n int) []string {
		var out []string
		for _, i := range rng.Perm(len(from))[:n] {
			out = append(out, from[i])
		}
		return out
	}
	orderBy := func(from []string) string {
		var items []string
		for _, c := range pick(from, rng.Intn(min(3, len(from))+1)) {
			items = append(items, c+[]string{"", " DESC"}[rng.Intn(2)])
		}
		if items == nil {
			return ""
		}
		return " ORDER BY " + strings.Join(items, ", ")
	}
	var st scatterStmt
	where := ""
	if rng.Intn(3) == 0 {
		where = " WHERE a <= ?"
		st.args = []sqlengine.Value{sqlengine.NewInt(int64(rng.Intn(5)))}
	}
	bounds := ""
	switch rng.Intn(3) {
	case 0:
		bounds = fmt.Sprintf(" LIMIT %d", rng.Intn(12))
	case 1:
		bounds = fmt.Sprintf(" LIMIT %d OFFSET %d", rng.Intn(12), rng.Intn(5))
	}
	switch rng.Intn(5) {
	case 0: // every column, ordered by name
		st.sql = "SELECT * FROM t" + where + orderBy(cols) + bounds
	case 1: // DISTINCT orders by what it returns
		list := pick(cols[1:], 1+rng.Intn(2))
		st.sql = "SELECT DISTINCT " + strings.Join(list, ", ") + " FROM t" + where + orderBy(list) + bounds
	case 2, 3:
		st.sql = "SELECT " + strings.Join(pick(cols, 1+rng.Intn(3)), ", ") + " FROM t" + where + orderBy(cols) + bounds
	default:
		keys := pick(cols[1:], rng.Intn(3))
		list, names := slices.Clone(keys), append(slices.Clone(keys), "n")
		list = append(list, "COUNT(*) AS n")
		for i := rng.Intn(3); i > 0; i-- {
			call := []string{"COUNT", "SUM", "MIN", "MAX"}[rng.Intn(4)] + "(" + cols[1+rng.Intn(4)] + ")"
			if rng.Intn(2) == 0 {
				names = append(names, fmt.Sprint("agg", i))
				call += " AS agg" + fmt.Sprint(i)
			}
			list = append(list, call)
		}
		st.sql = "SELECT " + strings.Join(list, ", ") + " FROM t" + where
		if keys != nil {
			st.sql += " GROUP BY " + strings.Join(keys, ", ")
		}
		st.sql += orderBy(names) + bounds
	}
	return st
}

// scatterCase is a fixture and the statements to hold it to.
type scatterCase struct {
	fx    *scatterFixture
	stmts []scatterStmt
}

// scatterCases is every fixture with its statements: Cloudstone's scatter
// statements over the Cloudstone preload and 200 seeded shapes over seeded
// rows, each over two cells and over three.
func scatterCases(t *testing.T, env *sim.Env) []scatterCase {
	var cases []scatterCase
	for _, cells := range []int{2, 3} {
		cases = append(cases, scatterCase{cloudstoneFixture(t, env, cells, 60), cloudstoneScatters})
		rng := rand.New(rand.NewSource(int64(21 + cells)))
		seeded := scatterCase{fx: seededFixture(t, rng, cells)}
		for i := 0; i < 200; i++ {
			seeded.stmts = append(seeded.stmts, genScatter(rng))
		}
		cases = append(cases, seeded)
	}
	return cases
}

func keepOrder([]*sqlengine.ResultSet) {}

// TestScatterEqualsOneEngine: over two cells and over three, every statement
// scatters to the header, rows and order the union engine returns.
func TestScatterEqualsOneEngine(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	for _, c := range scatterCases(t, env) {
		for _, diff := range c.fx.mismatches(t, c.stmts, keepOrder) {
			t.Error(diff)
		}
	}
}

// TestScatterEquivalenceNoticesLegOrder is the check on the check: a merge
// that walks its legs highest cell first breaks every tie the other way, and
// the comparison above must say so — on the Cloudstone statements (the tag
// cloud's equal counts, the unordered text search) and on the seeded ones.
func TestScatterEquivalenceNoticesLegOrder(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	for _, c := range scatterCases(t, env) {
		if len(c.fx.mismatches(t, c.stmts, slices.Reverse[[]*sqlengine.ResultSet])) == 0 {
			t.Errorf("legs merged in reverse cell order went unnoticed over %d cells (%s, ...)", len(c.fx.cells), c.stmts[0].sql)
		}
	}
}
