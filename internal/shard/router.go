package shard

import (
	"fmt"
	"sort"
	"strings"

	"cloudrepl/internal/proxy"
	"cloudrepl/internal/sqlengine"
)

// routeKind classifies where a statement must run.
type routeKind int

const (
	// routeSingle pins the statement to the cell owning its shard key.
	routeSingle routeKind = iota
	// routeScatter fans a multi-key read out to every slot-owning cell and
	// merges the per-cell results.
	routeScatter
	// routeAny runs on any one cell (global-table reads, table-less
	// selects) — every cell holds the data.
	routeAny
	// routeBroadcast runs on every cell (DDL, global-table writes).
	routeBroadcast
)

// keyRef locates one shard-key value in a statement: a positional argument
// (param >= 0) or an inline literal.
type keyRef struct {
	param int // argument index, -1 for literal
	lit   int64
}

// routeInfo is the cached routing decision for one statement text. The
// client workload is a small set of parameterized templates, so analysis
// runs once per template and every execution only resolves key arguments.
type routeInfo struct {
	kind  routeKind
	write bool
	table string   // owning sharded table for routeSingle
	keys  []keyRef // shard keys; all must resolve to one owner at exec
	plan  *mergePlan
	err   error
}

// analyze parses sql and derives its route against ks. It never fails hard:
// statements it cannot understand fall back to routeAny (reads) or
// routeBroadcast (writes) so the engine — not the router — reports errors,
// except scatter reads whose merge is semantically unsupported (err set).
func analyze(sql string, ks Keyspace) *routeInfo {
	stmt, perr := sqlengine.Parse(sql)
	if perr != nil {
		// Let one engine produce the authoritative parse error.
		return &routeInfo{kind: routeAny, write: !proxy.IsRead(sql)}
	}
	switch s := stmt.(type) {
	case *sqlengine.SelectStmt:
		return analyzeSelect(s, ks)
	case *sqlengine.InsertStmt:
		return analyzeInsert(s, ks)
	case *sqlengine.UpdateStmt:
		return analyzeWhereWrite(s.Table, s.Where, ks)
	case *sqlengine.DeleteStmt:
		return analyzeWhereWrite(s.Table, s.Where, ks)
	default:
		// DDL, USE, transaction control: every cell must see it.
		return &routeInfo{kind: routeBroadcast, write: true}
	}
}

// analyzeSelect routes a read: single-key when any sharded table in scope
// is pinned by an equality on its key column (co-located joins stay
// correct because child tables hash the parent key), scatter otherwise.
func analyzeSelect(s *sqlengine.SelectStmt, ks Keyspace) *routeInfo {
	if s.From == nil {
		return &routeInfo{kind: routeAny}
	}
	type scopeEntry struct {
		ref   string // name in scope (alias or table name), lowered
		table string // real table name, lowered
	}
	scope := []scopeEntry{{strings.ToLower(refName(*s.From)), strings.ToLower(s.From.Name)}}
	for _, j := range s.Joins {
		scope = append(scope, scopeEntry{strings.ToLower(refName(j.Table)), strings.ToLower(j.Table.Name)})
	}
	anySharded := false
	for _, e := range scope {
		if ks.sharded(e.table) {
			anySharded = true
		}
	}
	if !anySharded {
		// Global (or unknown) tables only: any one cell answers.
		return &routeInfo{kind: routeAny}
	}
	// Look for <key column> = <param|literal> among the top-level AND
	// conjuncts. Unqualified columns are attributed to the FROM table;
	// qualified ones resolve through the scope.
	for _, conj := range conjuncts(s.Where) {
		b, ok := conj.(*sqlengine.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		col, val := eqSides(b)
		if col == nil {
			continue
		}
		table := ""
		if col.Table != "" {
			q := strings.ToLower(col.Table)
			for _, e := range scope {
				if e.ref == q {
					table = e.table
				}
			}
		} else {
			table = scope[0].table
		}
		kc, ok := ks.keyColumn(table)
		if !ok || !strings.EqualFold(col.Name, kc) {
			continue
		}
		kr, ok := keyRefOf(val)
		if !ok {
			continue
		}
		return &routeInfo{kind: routeSingle, table: table, keys: []keyRef{kr}}
	}
	plan, err := buildMergePlan(s)
	return &routeInfo{kind: routeScatter, plan: plan, err: err}
}

// analyzeInsert routes an INSERT by the shard-key column value of its rows.
func analyzeInsert(s *sqlengine.InsertStmt, ks Keyspace) *routeInfo {
	table := strings.ToLower(s.Table.Name)
	kc, ok := ks.keyColumn(table)
	if !ok {
		return &routeInfo{kind: routeBroadcast, write: true}
	}
	kidx := -1
	for i, c := range s.Columns {
		if strings.EqualFold(c, kc) {
			kidx = i
		}
	}
	if kidx < 0 {
		return &routeInfo{err: fmt.Errorf("shard: INSERT INTO %s omits shard key %s", table, kc)}
	}
	ri := &routeInfo{kind: routeSingle, write: true, table: table}
	for _, row := range s.Rows {
		if kidx >= len(row) {
			return &routeInfo{err: fmt.Errorf("shard: INSERT INTO %s row shorter than column list", table)}
		}
		kr, ok := keyRefOf(row[kidx])
		if !ok {
			return &routeInfo{err: fmt.Errorf("shard: INSERT INTO %s has non-integer shard key", table)}
		}
		ri.keys = append(ri.keys, kr)
	}
	return ri
}

// analyzeWhereWrite routes UPDATE/DELETE: single-key on key equality,
// broadcast otherwise (each cell touches only the rows it owns, so a
// broadcast write is correct, just not cheap).
func analyzeWhereWrite(t sqlengine.TableRef, where sqlengine.Expr, ks Keyspace) *routeInfo {
	table := strings.ToLower(t.Name)
	kc, ok := ks.keyColumn(table)
	if !ok {
		return &routeInfo{kind: routeBroadcast, write: true}
	}
	for _, conj := range conjuncts(where) {
		b, ok := conj.(*sqlengine.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		col, val := eqSides(b)
		if col == nil || (col.Table != "" && !strings.EqualFold(col.Table, refName(t))) {
			continue
		}
		if !strings.EqualFold(col.Name, kc) {
			continue
		}
		if kr, ok := keyRefOf(val); ok {
			return &routeInfo{kind: routeSingle, write: true, table: table, keys: []keyRef{kr}}
		}
	}
	return &routeInfo{kind: routeBroadcast, write: true}
}

// refName mirrors the engine's scope naming: alias when present.
func refName(t sqlengine.TableRef) string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// conjuncts flattens a WHERE tree's top-level ANDs.
func conjuncts(e sqlengine.Expr) []sqlengine.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlengine.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sqlengine.Expr{e}
}

// eqSides splits `col = value` regardless of side order.
func eqSides(b *sqlengine.Binary) (*sqlengine.ColRef, sqlengine.Expr) {
	if c, ok := b.L.(*sqlengine.ColRef); ok {
		return c, b.R
	}
	if c, ok := b.R.(*sqlengine.ColRef); ok {
		return c, b.L
	}
	return nil, nil
}

// keyRefOf extracts a shard-key reference from a value expression.
func keyRefOf(e sqlengine.Expr) (keyRef, bool) {
	switch v := e.(type) {
	case *sqlengine.Param:
		return keyRef{param: v.Index}, true
	case *sqlengine.Literal:
		if v.V.Kind() == sqlengine.KindInt {
			return keyRef{param: -1, lit: v.V.Int()}, true
		}
	}
	return keyRef{}, false
}

// resolveKeys materializes the statement's shard keys against its
// arguments into buf's backing, which the caller owns and reuses. Every key
// must be an integer.
func (ri *routeInfo) resolveKeys(buf []int64, args []sqlengine.Value) ([]int64, error) {
	out := buf[:0]
	for _, kr := range ri.keys {
		if kr.param < 0 {
			out = append(out, kr.lit)
			continue
		}
		if kr.param >= len(args) {
			return nil, fmt.Errorf("shard: missing argument %d for shard key", kr.param+1)
		}
		v := args[kr.param]
		if v.Kind() != sqlengine.KindInt {
			return nil, fmt.Errorf("shard: shard key argument %d is %v, want integer", kr.param+1, v.Kind())
		}
		out = append(out, v.Int())
	}
	return out, nil
}

// --- scatter merge plans ---

// orderKey is one resolved merge-sort key: a column position in the
// per-cell result, or a column name resolved against the result header at
// merge time (SELECT * queries).
type orderKey struct {
	pos    int    // -1: resolve byName at merge
	byName string // lowercase column name when pos < 0
	desc   bool
}

// aggSpec is one re-aggregated output column.
type aggSpec struct {
	op string // "group" | "count" | "sum" | "min" | "max"
}

// mergePlan turns per-cell partial results into the global result. Two
// shapes: plain (sort-merge with LIMIT pushdown) and aggregate
// (re-aggregate COUNT/SUM/MIN/MAX over group keys, then order and limit).
type mergePlan struct {
	cellSQL  string // rewritten per-cell statement (same parameter order)
	dropCols int    // helper ORDER BY columns appended to the select list
	distinct bool
	orderBy  []orderKey
	limit    int // folded literal LIMIT+OFFSET pushed down per cell; -1 none
	offset   int
	aggs     []aggSpec // non-nil → aggregate shape
}

// buildMergePlan rewrites a SELECT for scatter execution. Unsupported
// shapes (HAVING, DISTINCT aggregates, AVG) return an error — the router
// surfaces it instead of merging wrong answers.
func buildMergePlan(s *sqlengine.SelectStmt) (*mergePlan, error) {
	if s.Having != nil {
		return nil, fmt.Errorf("shard: scatter SELECT with HAVING is not supported")
	}
	hasAgg := false
	for _, se := range s.Exprs {
		if se.Star {
			continue
		}
		if f, ok := se.Expr.(*sqlengine.FuncCall); ok && isAggregate(f.Name) {
			hasAgg = true
		}
	}
	if hasAgg || len(s.GroupBy) > 0 {
		return buildAggregatePlan(s)
	}
	return buildPlainPlan(s)
}

func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

// buildPlainPlan handles SELECT without aggregation: each cell runs the
// query (with ORDER BY columns made projectable and LIMIT+OFFSET pushed
// down), the merge concatenates in cell order, sorts stably by the order
// keys, deduplicates under DISTINCT, applies OFFSET/LIMIT and strips
// helper columns.
func buildPlainPlan(s *sqlengine.SelectStmt) (*mergePlan, error) {
	out := *s
	out.Exprs = append([]sqlengine.SelectExpr(nil), s.Exprs...)
	plan := &mergePlan{distinct: s.Distinct, limit: -1, offset: 0}

	star := len(s.Exprs) == 1 && s.Exprs[0].Star
	for _, o := range s.OrderBy {
		ok := orderKey{pos: -1, desc: o.Desc}
		if pos := findProjection(out.Exprs, o.Expr); pos >= 0 {
			ok.pos = pos
		} else if star {
			c, isCol := o.Expr.(*sqlengine.ColRef)
			if !isCol {
				return nil, fmt.Errorf("shard: scatter SELECT * ordered by a non-column expression")
			}
			ok.byName = strings.ToLower(c.Name)
		} else {
			// Append the order expression as a helper projection so the
			// merge can sort on it, then strip it from the final rows.
			out.Exprs = append(out.Exprs, sqlengine.SelectExpr{Expr: o.Expr})
			ok.pos = len(out.Exprs) - 1
			plan.dropCols++
		}
		plan.orderBy = append(plan.orderBy, ok)
	}
	if plan.dropCols > 0 && s.Distinct {
		return nil, fmt.Errorf("shard: scatter DISTINCT ordered by an unprojected column")
	}

	// Push LIMIT+OFFSET down: each cell returns at most limit+offset rows
	// (any global top-K is contained in the union of per-cell top-Ks); the
	// true offset applies after the merge. Parameterized limits stay
	// merge-side only.
	lim, limLit := literalInt(s.Limit)
	off, offLit := literalInt(s.Offset)
	if s.Limit != nil && !limLit || s.Offset != nil && !offLit {
		return nil, fmt.Errorf("shard: scatter SELECT with parameterized LIMIT/OFFSET is not supported")
	}
	if limLit {
		plan.limit = lim
	}
	if offLit {
		plan.offset = off
	}
	out.Offset = nil
	out.Limit = nil
	if limLit {
		total := lim + off
		out.Limit = &sqlengine.Literal{V: sqlengine.NewInt(int64(total))}
	}
	plan.cellSQL = out.String()
	return plan, nil
}

// buildAggregatePlan handles GROUP BY / aggregate selects: each cell
// aggregates its own rows (ORDER BY and LIMIT stripped — global order
// needs global totals), the merge combines partial aggregates per group
// key and re-applies ORDER BY/LIMIT. COUNT and SUM add, MIN/MAX compare;
// AVG and DISTINCT aggregates don't decompose and are rejected.
func buildAggregatePlan(s *sqlengine.SelectStmt) (*mergePlan, error) {
	if s.Distinct {
		return nil, fmt.Errorf("shard: scatter SELECT DISTINCT with aggregation is not supported")
	}
	plan := &mergePlan{limit: -1}
	for _, se := range s.Exprs {
		if se.Star {
			return nil, fmt.Errorf("shard: scatter aggregate with * projection is not supported")
		}
		if f, ok := se.Expr.(*sqlengine.FuncCall); ok && isAggregate(f.Name) {
			if f.Distinct {
				return nil, fmt.Errorf("shard: scatter %s(DISTINCT) does not decompose", f.Name)
			}
			switch f.Name {
			case "COUNT":
				plan.aggs = append(plan.aggs, aggSpec{op: "count"})
			case "SUM":
				plan.aggs = append(plan.aggs, aggSpec{op: "sum"})
			case "MIN":
				plan.aggs = append(plan.aggs, aggSpec{op: "min"})
			case "MAX":
				plan.aggs = append(plan.aggs, aggSpec{op: "max"})
			default:
				return nil, fmt.Errorf("shard: scatter %s does not decompose", f.Name)
			}
			continue
		}
		// Non-aggregate projection must be a group key.
		if findExpr(s.GroupBy, se.Expr) < 0 {
			return nil, fmt.Errorf("shard: scatter projection %s is neither aggregate nor group key", se.Expr.String())
		}
		plan.aggs = append(plan.aggs, aggSpec{op: "group"})
	}
	for _, o := range s.OrderBy {
		pos := findProjection(s.Exprs, o.Expr)
		if pos < 0 {
			return nil, fmt.Errorf("shard: scatter aggregate ordered by an unprojected expression")
		}
		plan.orderBy = append(plan.orderBy, orderKey{pos: pos, desc: o.Desc})
	}
	lim, limLit := literalInt(s.Limit)
	off, offLit := literalInt(s.Offset)
	if s.Limit != nil && !limLit || s.Offset != nil && !offLit {
		return nil, fmt.Errorf("shard: scatter aggregate with parameterized LIMIT/OFFSET is not supported")
	}
	if limLit {
		plan.limit = lim
	}
	if offLit {
		plan.offset = off
	}
	out := *s
	out.OrderBy = nil
	out.Limit = nil
	out.Offset = nil
	plan.cellSQL = out.String()
	return plan, nil
}

// findProjection locates an ORDER BY expression in the select list: by
// alias reference, then by syntactic equality.
func findProjection(exprs []sqlengine.SelectExpr, e sqlengine.Expr) int {
	if c, ok := e.(*sqlengine.ColRef); ok && c.Table == "" {
		for i, se := range exprs {
			if se.Alias != "" && strings.EqualFold(se.Alias, c.Name) {
				return i
			}
		}
	}
	want := e.String()
	for i, se := range exprs {
		if se.Star || se.Expr == nil {
			continue
		}
		if se.Expr.String() == want {
			return i
		}
		if c, ok := e.(*sqlengine.ColRef); ok && c.Table == "" {
			if pc, ok := se.Expr.(*sqlengine.ColRef); ok && strings.EqualFold(pc.Name, c.Name) {
				return i
			}
		}
	}
	return -1
}

func findExpr(list []sqlengine.Expr, e sqlengine.Expr) int {
	want := e.String()
	for i, g := range list {
		if g.String() == want {
			return i
		}
	}
	return -1
}

// literalInt evaluates a literal integer expression (LIMIT/OFFSET).
func literalInt(e sqlengine.Expr) (int, bool) {
	l, ok := e.(*sqlengine.Literal)
	if !ok || l.V.Kind() != sqlengine.KindInt {
		return 0, false
	}
	return int(l.V.Int()), true
}

// merge combines per-cell result sets (in ascending cell order) into the
// global result. The concatenation order is deterministic and the sort is
// stable, so merged output is byte-identical across runs.
func (plan *mergePlan) merge(sets []*sqlengine.ResultSet) (*sqlengine.ResultSet, error) {
	if len(sets) == 0 {
		return &sqlengine.ResultSet{}, nil
	}
	out := &sqlengine.ResultSet{Columns: sets[0].Columns}
	for _, s := range sets {
		out.Rows = append(out.Rows, s.Rows...)
	}
	if plan.aggs != nil {
		if err := plan.reaggregate(out); err != nil {
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
			return nil, fmt.Errorf("shard: merge order column %q not in result", k.byName)
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

// reaggregate folds concatenated per-cell partials into one row per group
// key, in first-seen order (deterministic given the ordered concat).
func (plan *mergePlan) reaggregate(rs *sqlengine.ResultSet) error {
	if len(plan.aggs) != len(rs.Columns) {
		return fmt.Errorf("shard: aggregate merge expected %d columns, got %d", len(plan.aggs), len(rs.Columns))
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

// rowFingerprint renders a row for DISTINCT comparison.
func rowFingerprint(row []sqlengine.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.SQL())
		b.WriteByte('\x00')
	}
	return b.String()
}
