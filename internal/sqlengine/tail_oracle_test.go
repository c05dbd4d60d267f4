package sqlengine

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The tail's oracle: the comparison, the bounded top-N, the grouping and the
// DISTINCT the executor ran before its per-row paths were typed (PR 20), kept
// as they were and run over plain row slices. TestTailAgainstOracle feeds both
// the same rows — what the statement's FROM/WHERE/JOIN produces, in arrival
// order — and demands the same rows back in the same order with the same
// ExecStats.

// oracleCompare is Compare before the same-kind cases moved in front of it.
func oracleCompare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		if a.kind == KindFloat || b.kind == KindFloat {
			return cmpFloat(a.Float(), b.Float())
		}
		return cmpInt(a.i, b.i)
	}
	if a.kind == KindString && b.kind == KindString {
		return strings.Compare(a.s, b.s)
	}
	if a.kind == KindString {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.s), 64); err == nil {
			return cmpFloat(f, b.Float())
		}
		return strings.Compare(a.s, b.String())
	}
	if f, err := strconv.ParseFloat(strings.TrimSpace(b.s), 64); err == nil {
		return cmpFloat(a.Float(), f)
	}
	return strings.Compare(a.String(), b.s)
}

// oracleKey is one ORDER BY item: a column of the rows being ordered.
type oracleKey struct {
	col  int
	desc bool
}

func oracleLess(by []oracleKey, a, b []Value) bool {
	for _, o := range by {
		if c := oracleCompare(a[o.col], b[o.col]); c != 0 {
			return (c < 0) != o.desc
		}
	}
	return false
}

// oracleGather is the old gatherRows: the first keep rows, or with ORDER BY the
// top keep of the stable sort order, by insertion into a buffer sorted once it
// has filled — a row that cannot beat the worst survivor is dropped, one that
// can is inserted behind its equals.
func oracleGather(rows [][]Value, by []oracleKey, keep int) [][]Value {
	var buf [][]Value
	sorted := false
	stable := func() {
		sort.SliceStable(buf, func(i, j int) bool { return oracleLess(by, buf[i], buf[j]) })
	}
	for _, r := range rows {
		n := len(buf)
		if n == keep && len(by) == 0 {
			break
		}
		if n < keep || keep < 0 {
			buf = append(buf, r)
			if len(buf) == keep && len(by) > 0 {
				stable()
				sorted = true
			}
			continue
		}
		if keep == 0 || !oracleLess(by, r, buf[n-1]) {
			continue
		}
		pos := sort.Search(n-1, func(i int) bool { return oracleLess(by, r, buf[i]) })
		copy(buf[pos+1:], buf[pos:n-1])
		buf[pos] = r
	}
	if !sorted && len(by) > 0 {
		stable()
	}
	return buf
}

// oracleAgg is one aggregate call over a column of the grouped rows (col < 0:
// COUNT(*)).
type oracleAgg struct {
	fn  string
	col int
}

// oracleAcc is the old aggAcc.
type oracleAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	anyFloat bool
	min, max Value
}

func (a *oracleAcc) add(v Value) {
	if v.IsNull() {
		return
	}
	a.count++
	a.anyFloat = a.anyFloat || v.Kind() == KindFloat
	a.sumF += v.Float()
	a.sumI += v.Int()
	if a.min.IsNull() || oracleCompare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || oracleCompare(v, a.max) > 0 {
		a.max = v
	}
}

func (a *oracleAcc) result(fn string) Value {
	switch {
	case fn == "COUNT":
		return NewInt(a.count)
	case fn == "MIN":
		return a.min
	case fn == "MAX":
		return a.max
	case a.count == 0:
		return Null
	case a.anyFloat:
		return NewFloat(a.sumF)
	}
	return NewInt(a.sumI)
}

// oracleGroup is the old gatherGroups up to HAVING: one output row per group
// in first-seen order — the group's columns then its aggregates — with groups
// found through a map keyed by the rendered tuple.
func oracleGroup(rows [][]Value, groupBy []int, aggs []oracleAgg) [][]Value {
	index := map[string]int{}
	var firsts [][]Value
	var accs [][]oracleAcc
	for _, r := range rows {
		var kb []byte
		for _, c := range groupBy {
			kb = r[c].hashKey().appendTo(kb)
		}
		g, ok := index[string(kb)]
		if !ok {
			g = len(firsts)
			index[string(kb)] = g
			firsts = append(firsts, r)
			accs = append(accs, make([]oracleAcc, len(aggs)))
		}
		for j, ag := range aggs {
			if ag.col < 0 {
				accs[g][j].count++
				continue
			}
			accs[g][j].add(r[ag.col])
		}
	}
	if len(firsts) == 0 && len(groupBy) == 0 {
		firsts = append(firsts, nil)
		accs = append(accs, make([]oracleAcc, len(aggs)))
	}
	out := make([][]Value, len(firsts))
	for g := range firsts {
		for _, c := range groupBy {
			out[g] = append(out[g], firsts[g][c])
		}
		for j, ag := range aggs {
			out[g] = append(out[g], accs[g][j].result(ag.fn))
		}
	}
	return out
}

// oracleDedupe is the old DISTINCT: rows filed under their rendered bytes.
func oracleDedupe(rows [][]Value) [][]Value {
	seen := map[string]bool{}
	var out [][]Value
	for _, r := range rows {
		var kb []byte
		for _, v := range r {
			kb = v.hashKey().appendTo(kb)
		}
		if !seen[string(kb)] {
			seen[string(kb)] = true
			out = append(out, r)
		}
	}
	return out
}

// tailCase is one generated statement: its text, the text of the statement
// that produces the rows its tail consumes, and the tail itself as the oracle
// runs it.
type tailCase struct {
	sql, base string
	args      []Value

	groupBy []int // aggregated when aggs or groupBy is set
	aggs    []oracleAgg
	having  func(out []Value) bool
	by      []oracleKey // over base columns, or over group output columns
	project []int       // base columns returned (non-aggregated)
	dist    bool
	limit   int // -1: none
	offset  int
}

func (tc *tailCase) want(base [][]Value) [][]Value {
	rows := base
	if tc.aggs != nil || tc.groupBy != nil {
		rows = nil
		for _, g := range oracleGroup(base, tc.groupBy, tc.aggs) {
			if tc.having == nil || tc.having(g) {
				rows = append(rows, g)
			}
		}
		return window(oracleGather(rows, tc.by, -1), tc.offset, tc.limit)
	}
	keep := -1
	if tc.limit >= 0 && !tc.dist {
		keep = tc.limit + tc.offset
	}
	rows = oracleGather(rows, tc.by, keep)
	if !tc.dist {
		rows = window(rows, tc.offset, tc.limit)
	}
	out := make([][]Value, len(rows))
	for i, r := range rows {
		for _, c := range tc.project {
			out[i] = append(out[i], r[c])
		}
	}
	if tc.dist {
		out = window(oracleDedupe(out), tc.offset, tc.limit)
	}
	return out
}

// The base row both statements of a case read: every column of t and the
// joined u.w.
var tailCols = []string{"t.id", "t.a", "t.b", "t.c", "t.d", "t.ts", "u.w"}

const tailFrom = " FROM t JOIN u ON u.tid = t.id"

// genTailCase draws a statement. Sort keys are few-valued columns, so ties —
// and with them the stability rule — are the common case, not the exception.
func genTailCase(rng *rand.Rand) *tailCase {
	tc := &tailCase{limit: -1}
	where := ""
	switch rng.Intn(4) {
	case 0:
		where = " WHERE t.a <= ?"
		tc.args = []Value{NewInt(int64(rng.Intn(6)))}
	case 1:
		where = " WHERE t.c LIKE ?"
		tc.args = []Value{NewString([]string{"%", "x%", "%0", "_"}[rng.Intn(4)])}
	}
	tc.base = "SELECT " + strings.Join(tailCols, ", ") + tailFrom + where
	orderBy := func(cols []string) string {
		var items []string
		for _, k := range rng.Perm(len(cols))[:rng.Intn(min(4, len(cols)+1))] {
			key := oracleKey{col: k, desc: rng.Intn(2) == 0}
			tc.by = append(tc.by, key)
			items = append(items, cols[k]+map[bool]string{true: " DESC", false: ""}[key.desc])
		}
		if items == nil {
			return ""
		}
		return " ORDER BY " + strings.Join(items, ", ")
	}
	bounds := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		tc.limit = rng.Intn(12)
		if rng.Intn(2) == 0 {
			return fmt.Sprintf(" LIMIT %d", tc.limit)
		}
		tc.offset = rng.Intn(5)
		return fmt.Sprintf(" LIMIT %d OFFSET %d", tc.limit, tc.offset)
	}

	if rng.Intn(3) > 0 { // rows
		tc.project = rng.Perm(len(tailCols))[:1+rng.Intn(3)]
		tc.dist = rng.Intn(4) == 0
		sel := "SELECT "
		if tc.dist {
			sel += "DISTINCT "
		}
		for i, c := range tc.project {
			if i > 0 {
				sel += ", "
			}
			sel += tailCols[c]
		}
		tc.sql = sel + tailFrom + where + orderBy(tailCols) + bounds()
		return tc
	}

	// groups: the output row is the group's columns, then the aggregates.
	var out []string
	for _, c := range rng.Perm(len(tailCols))[:rng.Intn(3)] {
		tc.groupBy = append(tc.groupBy, c)
		out = append(out, tailCols[c])
	}
	tc.aggs = []oracleAgg{{fn: "COUNT", col: -1}}
	calls := []string{"COUNT(*)"}
	for i := rng.Intn(3); i > 0; i-- {
		ag := oracleAgg{fn: []string{"COUNT", "SUM", "MIN", "MAX"}[rng.Intn(4)], col: 1 + rng.Intn(len(tailCols)-1)}
		tc.aggs = append(tc.aggs, ag)
		calls = append(calls, ag.fn+"("+tailCols[ag.col]+")")
	}
	sel, names := append([]string(nil), out...), append([]string(nil), out...)
	for j, call := range calls {
		sel = append(sel, fmt.Sprintf("%s AS agg%d", call, j))
		names = append(names, fmt.Sprintf("agg%d", j))
	}
	tc.sql = "SELECT " + strings.Join(sel, ", ") + tailFrom + where
	if tc.groupBy != nil {
		tc.sql += " GROUP BY " + strings.Join(out, ", ")
	}
	if rng.Intn(2) == 0 {
		min, at := int64(1+rng.Intn(4)), len(tc.groupBy)
		tc.sql += fmt.Sprintf(" HAVING COUNT(*) >= %d", min)
		tc.having = func(g []Value) bool { return g[at].Int() >= min }
	}
	tc.sql += orderBy(names) + bounds()
	return tc
}

func renderRows(rows [][]Value) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(&b, "%s:%s|", v.Kind(), v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestTailAgainstOracle(t *testing.T) {
	eng := NewEngine()
	if err := eng.CreateDatabase("d", false); err != nil {
		t.Fatal(err)
	}
	writer := eng.NewSession("d")
	exec := func(s *Session, sql string, args ...Value) *Result {
		t.Helper()
		res, err := s.Exec(sql, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	exec(writer, "CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, b DOUBLE, c VARCHAR(8), d BOOLEAN, ts TIMESTAMP, INDEX idx_a (a))")
	exec(writer, "CREATE TABLE u (id BIGINT PRIMARY KEY, tid BIGINT, w BIGINT, INDEX idx_tid (tid))")
	rng := rand.New(rand.NewSource(20))
	orNull := func(v Value) Value {
		if rng.Intn(6) == 0 {
			return Null
		}
		return v
	}
	randomRow := func(id int) []Value {
		return []Value{NewInt(int64(id)),
			orNull(NewInt(int64(rng.Intn(6)))),
			orNull(NewFloat(float64(rng.Intn(8)) / 2)), // 1.0 and 2.0 meet the integers 1 and 2
			orNull(NewString([]string{"x", "y", "Z", "10", "9", "1.0", ""}[rng.Intn(7)])),
			orNull(NewBool(rng.Intn(2) == 0)),
			orNull(NewTime(int64(rng.Intn(5)) * 1e6))}
	}
	for id := 1; id <= 120; id++ {
		exec(writer, "INSERT INTO t (id, a, b, c, d, ts) VALUES (?, ?, ?, ?, ?, ?)", randomRow(id)...)
		for k := rng.Intn(3); k > 0 && id%3 != 0; k-- { // every third t has no u: no joined row
			exec(writer, "INSERT INTO u (id, tid, w) VALUES (?, ?, ?)", NewInt(int64(id*10+k)), NewInt(int64(id)), orNull(NewInt(int64(rng.Intn(4)))))
		}
	}

	// A reader whose snapshot the head then moves away from: its scans resolve
	// every row through the version chains.
	behind := eng.NewSession("d")
	exec(behind, "BEGIN")
	for id := 1; id <= 120; id++ {
		switch rng.Intn(5) {
		case 0:
			exec(writer, "DELETE FROM t WHERE id = ?", NewInt(int64(id)))
		case 1:
			row := randomRow(id)
			exec(writer, "UPDATE t SET a = ?, b = ?, c = ? WHERE id = ?", row[1], row[2], row[3], row[0])
		case 2:
			exec(writer, "UPDATE u SET w = ? WHERE tid = ?", NewInt(int64(rng.Intn(4))), NewInt(int64(id)))
		}
	}
	for id := 121; id <= 140; id++ {
		exec(writer, "INSERT INTO t (id, a, b, c, d, ts) VALUES (?, ?, ?, ?, ?, ?)", randomRow(id)...)
	}
	if n := len(exec(behind, "SELECT id FROM t").Set.Rows); n != 120 {
		t.Fatalf("the snapshot reader sees %d rows of t, want the 120 it began with", n)
	}

	readers := []struct {
		name string
		s    *Session
	}{{"head", eng.NewSession("d")}, {"behind", behind}}
	shapes := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		tc := genTailCase(rng)
		for _, rd := range readers {
			base := exec(rd.s, tc.base, tc.args...)
			got := exec(rd.s, tc.sql, tc.args...)
			want := tc.want(base.Set.Rows)
			if g, w := renderRows(got.Set.Rows), renderRows(want); g != w {
				t.Fatalf("trial %d, reader %s: %s %v\ngot:\n%swant:\n%s", trial, rd.name, tc.sql, tc.args, g, w)
			}
			wantStats := base.Stats
			wantStats.RowsReturned = len(want)
			if got.Stats != wantStats {
				t.Fatalf("trial %d, reader %s: %s\nstats %+v, want %+v", trial, rd.name, tc.sql, got.Stats, wantStats)
			}
		}
		switch {
		case tc.aggs != nil:
			shapes["groups"]++
		case tc.dist:
			shapes["distinct"]++
		case tc.limit >= 0 && len(tc.by) > 0:
			shapes["top-n"]++
		default:
			shapes["rows"]++
		}
	}
	for _, shape := range []string{"groups", "distinct", "top-n", "rows"} {
		if shapes[shape] < 30 {
			t.Errorf("only %d %s statements among the trials", shapes[shape], shape)
		}
	}
}

// TestTopNWindowSlides drives the bounded buffer through every branch it has,
// on one column whose arrival order the test chooses: runs that lead (the
// window slides, and is moved back when it reaches the front of its array),
// rows that lose, rows that land inside, ties in all three places.
func TestTopNWindowSlides(t *testing.T) {
	arrivals := map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return -i },
		"sawtooth":   func(i int) int { return (i * 37) % 101 },
		"plateaus":   func(i int) int { return i / 7 },
		"two-valued": func(i int) int { return i % 2 },
		"valley":     func(i int) int { return (i - 150) * (i - 150) },
	}
	for name, key := range arrivals {
		eng := NewEngine()
		if err := eng.CreateDatabase("d", false); err != nil {
			t.Fatal(err)
		}
		s := eng.NewSession("d")
		if _, err := s.Exec("CREATE TABLE f (id BIGINT PRIMARY KEY, k BIGINT)"); err != nil {
			t.Fatal(err)
		}
		var base [][]Value
		for i := 0; i < 300; i++ {
			row := []Value{NewInt(int64(i)), NewInt(int64(key(i)))}
			if _, err := s.Exec("INSERT INTO f (id, k) VALUES (?, ?)", row...); err != nil {
				t.Fatal(err)
			}
			base = append(base, row)
		}
		for _, keep := range []int{1, 2, 3, 7, 10, 64, 299, 300, 500} {
			for _, desc := range []bool{false, true} {
				sql := "SELECT id, k FROM f ORDER BY k"
				if desc {
					sql += " DESC"
				}
				set, err := s.Query(sql+" LIMIT ?", NewInt(int64(keep)))
				if err != nil {
					t.Fatal(err)
				}
				want := oracleGather(base, []oracleKey{{col: 1, desc: desc}}, keep)
				if g, w := renderRows(set.Rows), renderRows(want); g != w {
					t.Errorf("%s arrivals, %s LIMIT %d:\ngot:\n%swant:\n%s", name, sql, keep, g, w)
				}
			}
		}
	}
}
