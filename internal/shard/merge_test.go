package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cloudrepl/internal/sqlengine"
)

// The oracle's description of a scatter statement: what this package's own
// merge plans held before the merge became sqlengine.Merge, less the per-cell
// rewrite.
type mergePlan struct {
	dropCols int // helper ORDER BY columns at the end of a leg's row
	distinct bool
	orderBy  []orderKey
	limit    int // -1 none
	offset   int
	aggs     []aggSpec // non-nil → aggregate shape
}

type orderKey struct {
	pos    int    // -1: resolve byName at merge
	byName string // lowercase column name when pos < 0
	desc   bool
}

type aggSpec struct {
	op string // "group" | "count" | "sum" | "min" | "max"
}

// referencePlan reads the oracle's plan off a statement whose select list and
// ORDER BY name plain columns, aliases or aggregate calls — every statement
// this file merges.
func referencePlan(t *testing.T, sql string) *mergePlan {
	t.Helper()
	stmt, err := sqlengine.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	s := stmt.(*sqlengine.SelectStmt)
	plan := &mergePlan{distinct: s.Distinct, limit: -1}
	if l, ok := s.Limit.(*sqlengine.Literal); ok {
		plan.limit = int(l.V.Int())
	}
	if l, ok := s.Offset.(*sqlengine.Literal); ok {
		plan.offset = int(l.V.Int())
	}
	star := s.Exprs[0].Star
	aggregated := len(s.GroupBy) > 0
	var names []string // a leg's columns, as ORDER BY may name them
	for _, se := range s.Exprs {
		if star {
			break
		}
		op := "group"
		if f, ok := se.Expr.(*sqlengine.FuncCall); ok {
			op, aggregated = strings.ToLower(f.Name), true
		}
		plan.aggs = append(plan.aggs, aggSpec{op: op})
		names = append(names, se.Alias)
		if se.Alias == "" {
			names[len(names)-1] = se.Expr.String()
		}
	}
	if !aggregated {
		plan.aggs = nil
	}
	for _, o := range s.OrderBy {
		key := orderKey{pos: -1, desc: o.Desc}
		name := o.Expr.String()
		for i, n := range names {
			if n == name {
				key.pos = i
			}
		}
		switch {
		case key.pos >= 0:
		case star:
			key.byName = name
		default:
			names = append(names, name)
			key.pos = len(names) - 1
			plan.dropCols++
		}
		plan.orderBy = append(plan.orderBy, key)
	}
	return plan
}

// refBefore is the comparison the cells ran for their own ORDER BY: the test
// sorts generated legs by it, the way cells deliver them.
func refBefore(keys []orderKey, a, b []sqlengine.Value) bool {
	for _, k := range keys {
		if c := sqlengine.Compare(a[k.pos], b[k.pos]); c != 0 {
			return (c < 0) != k.desc
		}
	}
	return false
}

// addValues sums two partial COUNT/SUM results, staying integer when both
// sides are integers.
func addValues(a, b sqlengine.Value) sqlengine.Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	if a.Kind() == sqlengine.KindInt && b.Kind() == sqlengine.KindInt {
		return sqlengine.NewInt(a.Int() + b.Int())
	}
	return sqlengine.NewFloat(a.Float() + b.Float())
}

// mergeReference is the merge this package ran first — concatenate in cell
// order, re-aggregate through a map of rendered keys, sort stably,
// deduplicate, cut — kept word for word as the oracle the property test below
// holds sqlengine.Merge to.
func mergeReference(plan *mergePlan, sets []*sqlengine.ResultSet) (*sqlengine.ResultSet, error) {
	if len(sets) == 0 {
		return &sqlengine.ResultSet{}, nil
	}
	out := &sqlengine.ResultSet{Columns: sets[0].Columns}
	for _, s := range sets {
		out.Rows = append(out.Rows, s.Rows...)
	}
	if plan.aggs != nil {
		if err := reaggregateReference(plan, out); err != nil {
			return nil, err
		}
	}
	keys := make([]orderKey, len(plan.orderBy))
	copy(keys, plan.orderBy)
	for i, k := range keys {
		if k.pos >= 0 {
			continue
		}
		found := -1
		for ci, name := range out.Columns {
			if strings.EqualFold(name, k.byName) {
				found = ci
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("sqlengine: merge order column %q not in result", k.byName)
		}
		keys[i].pos = found
	}
	if len(keys) > 0 {
		sort.SliceStable(out.Rows, func(i, j int) bool {
			a, b := out.Rows[i], out.Rows[j]
			for _, k := range keys {
				c := sqlengine.Compare(a[k.pos], b[k.pos])
				if c == 0 {
					continue
				}
				if k.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if plan.distinct {
		seen := make(map[string]bool, len(out.Rows))
		kept := out.Rows[:0]
		for _, r := range out.Rows {
			k := rowFingerprint(r)
			if !seen[k] {
				seen[k] = true
				kept = append(kept, r)
			}
		}
		out.Rows = kept
	}
	if plan.offset > 0 {
		if plan.offset >= len(out.Rows) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[plan.offset:]
		}
	}
	if plan.limit >= 0 && len(out.Rows) > plan.limit {
		out.Rows = out.Rows[:plan.limit]
	}
	if plan.dropCols > 0 {
		keep := len(out.Columns) - plan.dropCols
		out.Columns = out.Columns[:keep]
		for i, r := range out.Rows {
			out.Rows[i] = r[:keep]
		}
	}
	return out, nil
}

func reaggregateReference(plan *mergePlan, rs *sqlengine.ResultSet) error {
	if len(plan.aggs) != len(rs.Columns) {
		return fmt.Errorf("sqlengine: aggregate merge expected %d columns, got %d", len(plan.aggs), len(rs.Columns))
	}
	index := make(map[string]int)
	var merged [][]sqlengine.Value
	for _, row := range rs.Rows {
		var kb strings.Builder
		for i, a := range plan.aggs {
			if a.op == "group" {
				kb.WriteString(row[i].SQL())
				kb.WriteByte('\x00')
			}
		}
		key := kb.String()
		at, ok := index[key]
		if !ok {
			index[key] = len(merged)
			merged = append(merged, append([]sqlengine.Value(nil), row...))
			continue
		}
		acc := merged[at]
		for i, a := range plan.aggs {
			switch a.op {
			case "group":
			case "count", "sum":
				acc[i] = addValues(acc[i], row[i])
			case "min":
				if sqlengine.Compare(row[i], acc[i]) < 0 {
					acc[i] = row[i]
				}
			case "max":
				if sqlengine.Compare(row[i], acc[i]) > 0 {
					acc[i] = row[i]
				}
			}
		}
	}
	rs.Rows = merged
	return nil
}

func rowFingerprint(row []sqlengine.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.SQL())
		b.WriteByte('\x00')
	}
	return b.String()
}

// Column generators for the property test. Domains are tiny so that rows tie
// on their order keys, repeat under DISTINCT and meet in groups, all the
// time. They stay inside the values the reference's rendered keys and the
// engine's binary keys agree on (a float key past 1e21 renders unlike the
// integer it equals), and a MIN partial is never NULL: the reference lets a
// NULL partial win a MIN, which is a bug the new fold does not reproduce
// (TestMergeMinSkipsNullPartial).
type colGen func(*rand.Rand) sqlengine.Value

func genKey(r *rand.Rand) sqlengine.Value { // order, group and DISTINCT columns
	switch r.Intn(8) {
	case 0:
		return sqlengine.Null
	case 1:
		return sqlengine.NewString([]string{"a", "b", ""}[r.Intn(3)])
	case 2:
		return sqlengine.NewFloat([]float64{0.5, 2, -1.25}[r.Intn(3)])
	default:
		return sqlengine.NewInt(int64(r.Intn(4)))
	}
}

func genInt(r *rand.Rand) sqlengine.Value { return sqlengine.NewInt(int64(r.Intn(50))) }

func genSum(r *rand.Rand) sqlengine.Value { // SUM and MAX partials: int, float or NULL
	switch r.Intn(4) {
	case 0:
		return sqlengine.Null
	case 1:
		return sqlengine.NewFloat(float64(r.Intn(9)) / 4)
	default:
		return sqlengine.NewInt(int64(r.Intn(20)))
	}
}

func genText(r *rand.Rand) sqlengine.Value {
	return sqlengine.NewString(fmt.Sprintf("t%d", r.Intn(1000)))
}

// mergeShapes are the statement shapes the property test covers, each with
// the header a cell returns for its rewritten statement and a generator per
// column of that header.
var mergeShapes = []struct {
	sql  string
	cols []string
	gen  []colGen
}{
	{"SELECT id, title, created FROM events ORDER BY created DESC, title LIMIT 7 OFFSET 2",
		[]string{"id", "title", "created"}, []colGen{genInt, genKey, genKey}},
	{"SELECT id, created FROM events ORDER BY created",
		[]string{"id", "created"}, []colGen{genInt, genKey}},
	{"SELECT title FROM events ORDER BY created DESC, id LIMIT 4", // two helper columns
		[]string{"title", "created", "id"}, []colGen{genText, genKey, genKey}},
	{"SELECT * FROM events ORDER BY created DESC, creator_id", // keys resolved by name at merge
		[]string{"id", "creator_id", "created"}, []colGen{genInt, genKey, genKey}},
	{"SELECT id, title FROM events WHERE creator_id > 3 LIMIT 5", // no order: cell order
		[]string{"id", "title"}, []colGen{genInt, genText}},
	{"SELECT id FROM events WHERE creator_id > 3",
		[]string{"id"}, []colGen{genInt}},
	{"SELECT id FROM events ORDER BY id LIMIT 3 OFFSET 50", // OFFSET past the end
		[]string{"id"}, []colGen{genKey}},
	{"SELECT id FROM events ORDER BY id DESC LIMIT 0",
		[]string{"id"}, []colGen{genKey}},
	{"SELECT id FROM events ORDER BY id OFFSET 3",
		[]string{"id"}, []colGen{genKey}},
	{"SELECT DISTINCT creator_id, title FROM events ORDER BY creator_id DESC LIMIT 6 OFFSET 1",
		[]string{"creator_id", "title"}, []colGen{genKey, genKey}},
	{"SELECT DISTINCT creator_id FROM events",
		[]string{"creator_id"}, []colGen{genKey}},
	{"SELECT creator_id, title, COUNT(*) AS n, SUM(score), MIN(created), MAX(created) FROM events GROUP BY creator_id, title ORDER BY n DESC, creator_id LIMIT 5 OFFSET 1",
		[]string{"creator_id", "title", "n", "SUM(score)", "MIN(created)", "MAX(created)"},
		[]colGen{genKey, genKey, genInt, genSum, genInt, genSum}},
	{"SELECT tag_id, COUNT(*) AS cnt FROM event_tags GROUP BY tag_id", // no order: first-seen order
		[]string{"tag_id", "cnt"}, []colGen{genKey, genInt}},
	{"SELECT COUNT(*), SUM(id), MIN(id), MAX(id) FROM events", // one global group
		[]string{"COUNT(*)", "SUM(id)", "MIN(id)", "MAX(id)"}, []colGen{genInt, genSum, genInt, genSum}},
}

// sameResult compares two merged results value for value (kind included),
// taking a nil and an empty row list for the same thing.
func sameResult(a, b *sqlengine.ResultSet) bool {
	if !reflect.DeepEqual(a.Columns, b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

func cloneResult(rs *sqlengine.ResultSet) *sqlengine.ResultSet {
	out := &sqlengine.ResultSet{Columns: append([]string(nil), rs.Columns...)}
	for _, r := range rs.Rows {
		out.Rows = append(out.Rows, append([]sqlengine.Value(nil), r...))
	}
	return out
}

// TestMergeMatchesReference: over randomised leg sets — one to four legs,
// empty legs, rows tying across and within legs, NULL keys, every shape
// above — sqlengine.Merge returns what the reference returns. One Merge
// serves a shape's whole run, as the route cache's would, and each result is
// checked again after the next merge has reused its scratch. The legs of a
// global aggregate hold one row each, which is what an engine returns for
// one: over no partial rows at all the tail answers as it does over an empty
// table, with one row, where the reference returned none.
func TestMergeMatchesReference(t *testing.T) {
	ks := testKS()
	ks.Key["event_tags"] = "event_id"
	for si, shape := range mergeShapes {
		ri := analyze(shape.sql, ks)
		if ri.err != nil || ri.kind != routeScatter {
			t.Fatalf("%s: route %+v", shape.sql, ri)
		}
		plan := referencePlan(t, shape.sql)
		// The cells' own ORDER BY, for sorting the generated legs the way
		// cells deliver them.
		keys := append([]orderKey(nil), plan.orderBy...)
		for i, k := range keys {
			for ci, name := range shape.cols {
				if k.pos < 0 && strings.EqualFold(name, k.byName) {
					keys[i].pos = ci
				}
			}
		}
		global := plan.aggs != nil && !slices.ContainsFunc(plan.aggs, func(a aggSpec) bool { return a.op == "group" })
		rng := rand.New(rand.NewSource(int64(si) + 1))
		var prev, prevWant *sqlengine.ResultSet
		for iter := 0; iter < 1500; iter++ {
			sets := make([]*sqlengine.ResultSet, 1+rng.Intn(4))
			for li := range sets {
				leg := &sqlengine.ResultSet{Columns: shape.cols}
				n := rng.Intn(4) * rng.Intn(5)
				if global {
					n = 1
				}
				for ; n > 0; n-- {
					row := make([]sqlengine.Value, len(shape.cols))
					for ci, g := range shape.gen {
						row[ci] = g(rng)
					}
					leg.Rows = append(leg.Rows, row)
				}
				if plan.aggs == nil {
					sort.SliceStable(leg.Rows, func(i, j int) bool { return refBefore(keys, leg.Rows[i], leg.Rows[j]) })
				}
				sets[li] = leg
			}
			want, wantErr := mergeReference(plan, sets)
			got, err := mergeSets(ri.plan, sets...)
			if err != nil || wantErr != nil {
				t.Fatalf("%s: merge error %v, reference error %v", shape.sql, err, wantErr)
			}
			if !sameResult(got, want) {
				t.Fatalf("%s (iteration %d, %d legs):\n got %v\nwant %v", shape.sql, iter, len(sets), got, want)
			}
			if prev != nil && !sameResult(prev, prevWant) {
				t.Fatalf("%s (iteration %d): the previous result changed when the scratch was reused:\n now %v\n was %v", shape.sql, iter, prev, prevWant)
			}
			prev, prevWant = got, cloneResult(got)
		}
	}
}

// TestMergeErrors: the two ways a merge can fail are the reference's.
func TestMergeErrors(t *testing.T) {
	const star, agg = "SELECT * FROM events ORDER BY created", "SELECT COUNT(*), MAX(id) FROM events"
	for _, tc := range []struct {
		sql string
		set *sqlengine.ResultSet
	}{
		{star, &sqlengine.ResultSet{Columns: []string{"id", "title"}, Rows: [][]sqlengine.Value{{sqlengine.NewInt(1), sqlengine.NewString("x")}}}},
		{agg, &sqlengine.ResultSet{Columns: []string{"COUNT(*)"}, Rows: rows(3)}},
	} {
		_, wantErr := mergeReference(referencePlan(t, tc.sql), []*sqlengine.ResultSet{tc.set})
		_, err := mergeSets(analyze(tc.sql, testKS()).plan, tc.set)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("merge error %v, reference error %v", err, wantErr)
		}
	}
	if got, err := mergeSets(analyze(star, testKS()).plan); err != nil || got.Columns != nil || got.Rows != nil {
		t.Errorf("merge of no sets = %v, %v; want an empty result", got, err)
	}
}

// TestMergeMinSkipsNullPartial: MIN over a cell with no qualifying row is
// NULL, and NULL sorts before everything — the reference let it win. One
// engine's MIN skips NULLs; so does the merge of several engines' MINs.
func TestMergeMinSkipsNullPartial(t *testing.T) {
	plan := analyze("SELECT MIN(id), MAX(id) FROM events WHERE creator_id = 4", testKS()).plan
	cols := []string{"MIN(id)", "MAX(id)"}
	some := &sqlengine.ResultSet{Columns: cols, Rows: [][]sqlengine.Value{{sqlengine.NewInt(4), sqlengine.NewInt(9)}}}
	none := &sqlengine.ResultSet{Columns: cols, Rows: [][]sqlengine.Value{{sqlengine.Null, sqlengine.Null}}}
	for _, sets := range [][]*sqlengine.ResultSet{{some, none}, {none, some}, {none, some, none}} {
		got, err := mergeSets(plan, sets...)
		if err != nil || len(got.Rows) != 1 || got.Rows[0][0] != sqlengine.NewInt(4) || got.Rows[0][1] != sqlengine.NewInt(9) {
			t.Errorf("MIN/MAX over %d partials = %v, %v; want [4 9]", len(sets), got.Rows, err)
		}
	}
	if got, _ := mergeSets(plan, none, none); !got.Rows[0][0].IsNull() || !got.Rows[0][1].IsNull() {
		t.Errorf("MIN/MAX over empty cells = %v; want NULLs", got.Rows)
	}
}

// TestMergeGroupsLikeTheEngine: groups meet under the engine's key, not
// under their rendered text: 2000000 and 2e6 are one group to GROUP BY, and
// so to the merge (the reference, which rendered "2000000" and "2e+06", kept
// them apart).
func TestMergeGroupsLikeTheEngine(t *testing.T) {
	plan := analyze("SELECT score, COUNT(*) FROM events GROUP BY score", testKS()).plan
	cols := []string{"score", "COUNT(*)"}
	got, err := mergeSets(plan,
		&sqlengine.ResultSet{Columns: cols, Rows: [][]sqlengine.Value{{sqlengine.NewInt(2000000), sqlengine.NewInt(3)}}},
		&sqlengine.ResultSet{Columns: cols, Rows: [][]sqlengine.Value{{sqlengine.NewFloat(2e6), sqlengine.NewInt(4)}}},
	)
	if err != nil || len(got.Rows) != 1 || got.Rows[0][1] != sqlengine.NewInt(7) {
		t.Fatalf("merged groups = %v, %v; want one group counting 7", got.Rows, err)
	}
}
