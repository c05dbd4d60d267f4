package shard

import (
	"bytes"
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

// mergeScratch is the working memory of mergePlan.merge. A Conn owns one and
// every scatter it runs reuses it. Nothing merge hands back points into it:
// the rows of a plain merge are the legs' own row slices, the rows of an
// aggregate merge are copied out into storage allocated for that result.
type mergeScratch struct {
	keys  []orderKey          // plan.orderBy, by-name keys resolved against this result's header
	heads []int               // k-way merge: the next unread row of each leg
	rows  [][]sqlengine.Value // the merged sequence: leg rows (plain), views of acc (aggregate)
	acc   []sqlengine.Value   // aggregate fold: len(plan.aggs) values per group, in first-seen order
	kb    []byte              // key of the row in hand
	index keyIndex            // DISTINCT's seen-set, the fold's key → group number
}

// sort.Interface over the merged sequence by the resolved order keys, for
// the aggregate shape (its groups arrive in first-seen order, not sorted).
func (sc *mergeScratch) Len() int           { return len(sc.rows) }
func (sc *mergeScratch) Swap(i, j int)      { sc.rows[i], sc.rows[j] = sc.rows[j], sc.rows[i] }
func (sc *mergeScratch) Less(i, j int) bool { return sc.before(sc.rows[i], sc.rows[j]) }

// before is the merge order: the comparison the cells' own ORDER BY ran
// (sqlengine.Compare per key, flipped for DESC), so a leg that arrives sorted
// by its cell is sorted under it.
func (sc *mergeScratch) before(a, b []sqlengine.Value) bool {
	for _, k := range sc.keys {
		if c := sqlengine.Compare(a[k.pos], b[k.pos]); c != 0 {
			return (c < 0) != k.desc
		}
	}
	return false
}

// merge combines per-cell result sets (in ascending cell order) into out.
// The result is what concatenating the sets in cell order and sorting the
// concatenation stably would give — rows that tie on every order key come
// out lower cell first, and within a cell in the cell's order — so merged
// output is byte-identical across runs.
func (plan *mergePlan) merge(sc *mergeScratch, sets []*sqlengine.ResultSet, out *sqlengine.ResultSet) error {
	*out = sqlengine.ResultSet{}
	if len(sets) == 0 {
		return nil
	}
	columns := sets[0].Columns
	sc.keys = append(sc.keys[:0], plan.orderBy...)
	for i, k := range sc.keys {
		if k.pos >= 0 {
			continue
		}
		found := -1
		for ci, name := range columns {
			if strings.EqualFold(name, k.byName) {
				found = ci
			}
		}
		if found < 0 {
			return fmt.Errorf("shard: merge order column %q not in result", k.byName)
		}
		sc.keys[i].pos = found
	}
	if plan.aggs != nil && len(plan.aggs) != len(columns) {
		return fmt.Errorf("shard: aggregate merge expected %d columns, got %d", len(plan.aggs), len(columns))
	}
	// Rows past OFFSET+LIMIT of the merged sequence are never looked at.
	want := -1
	if plan.limit >= 0 {
		want = plan.offset + plan.limit
	}
	if plan.aggs != nil {
		plan.fold(sc, sets)
	} else {
		plan.mergeSorted(sc, sets, want)
	}
	rows := sc.rows
	if want >= 0 && len(rows) > want {
		rows = rows[:want]
	}
	rows = rows[min(plan.offset, len(rows)):]
	width := len(columns) - plan.dropCols
	out.Columns = columns[:width:width]
	if len(rows) > 0 {
		out.Rows = make([][]sqlengine.Value, len(rows))
		if plan.aggs == nil {
			for i, r := range rows {
				out.Rows[i] = r[:width:width]
			}
		} else {
			// The folded groups live in scratch: the result gets its own copy.
			own := make([]sqlengine.Value, 0, len(rows)*width)
			for i, r := range rows {
				own = append(own, r...)
				out.Rows[i] = own[i*width : (i+1)*width : (i+1)*width]
			}
		}
	}
	// Scratch keeps its capacity and nothing else: no leg result stays
	// reachable through it.
	clear(sc.rows)
	clear(sc.acc)
	sc.rows, sc.acc = sc.rows[:0], sc.acc[:0]
	return nil
}

// mergeSorted is the plain shape: a k-way merge of legs that each arrive
// sorted by the plan's order keys (the per-cell statement keeps its ORDER
// BY), stopping once want rows are out (want < 0: never). The smallest head
// wins and a tie goes to the lower cell, which makes the merge equal to a
// stable sort of the concatenation; without order keys every comparison
// ties and the merge is the concatenation. The cell count is small, so the
// heads are scanned rather than heaped.
func (plan *mergePlan) mergeSorted(sc *mergeScratch, sets []*sqlengine.ResultSet, want int) {
	sc.heads = sc.heads[:0]
	for range sets {
		sc.heads = append(sc.heads, 0)
	}
	if plan.distinct {
		sc.index.reset()
	}
	for want < 0 || len(sc.rows) < want {
		var best []sqlengine.Value
		from := -1
		for i, s := range sets {
			if h := sc.heads[i]; h < len(s.Rows) && (from < 0 || sc.before(s.Rows[h], best)) {
				best, from = s.Rows[h], i
			}
		}
		if from < 0 {
			return
		}
		sc.heads[from]++
		if plan.distinct {
			sc.kb = sc.kb[:0]
			for _, v := range best {
				sc.kb = v.AppendKey(sc.kb)
			}
			if _, first := sc.index.lookup(sc.kb); !first {
				continue
			}
		}
		sc.rows = append(sc.rows, best)
	}
}

// fold is the aggregate shape: per-cell partials fold into one row per group
// key in first-seen order (deterministic: cells in order, each cell's rows
// in its order), then sort stably by the order keys. Groups are keyed the
// way the cells' own GROUP BY keyed them (Value.AppendKey), so two cells'
// partials meet exactly when one engine would have put their rows together.
// COUNT and SUM add, MIN and MAX compare and, as in one engine, skip NULL —
// the partial of a cell that had no qualifying row.
func (plan *mergePlan) fold(sc *mergeScratch, sets []*sqlengine.ResultSet) {
	w := len(plan.aggs)
	sc.index.reset()
	for _, s := range sets {
		for _, row := range s.Rows {
			sc.kb = sc.kb[:0]
			for i, a := range plan.aggs {
				if a.op == "group" {
					sc.kb = row[i].AppendKey(sc.kb)
				}
			}
			g, first := sc.index.lookup(sc.kb)
			if first {
				sc.acc = append(sc.acc, row[:w]...)
				continue
			}
			acc := sc.acc[g*w : (g+1)*w]
			for i, a := range plan.aggs {
				switch a.op {
				case "count", "sum":
					acc[i] = addValues(acc[i], row[i])
				case "min":
					if !row[i].IsNull() && (acc[i].IsNull() || sqlengine.Compare(row[i], acc[i]) < 0) {
						acc[i] = row[i]
					}
				case "max":
					if sqlengine.Compare(row[i], acc[i]) > 0 {
						acc[i] = row[i]
					}
				}
			}
		}
	}
	for g := 0; g*w < len(sc.acc); g++ {
		sc.rows = append(sc.rows, sc.acc[g*w:(g+1)*w])
	}
	if len(sc.keys) > 0 {
		sort.Stable(sc)
	}
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

// keyIndex numbers distinct binary keys in first-seen order without
// materialising a string per key: the keys lie end to end in one arena and
// an open-addressed table holds their numbers. reset keeps every buffer, so
// a Conn that merges the same statement again allocates nothing here.
type keyIndex struct {
	table []int32  // linear probing; key number + 1, 0 for an empty slot
	hash  []uint64 // per key
	end   []int    // per key: where it ends in arena (it starts where the one before ends)
	arena []byte
}

func (ix *keyIndex) reset() {
	clear(ix.table)
	ix.hash, ix.end, ix.arena = ix.hash[:0], ix.end[:0], ix.arena[:0]
}

// lookup returns key's number, and whether this call is the one that
// assigned it.
func (ix *keyIndex) lookup(key []byte) (n int, first bool) {
	if 2*(len(ix.hash)+1) > len(ix.table) {
		ix.table = make([]int32, max(16, 2*len(ix.table)))
		for n, h := range ix.hash {
			ix.place(h, n)
		}
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	mask := uint64(len(ix.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		t := int(ix.table[i])
		if t == 0 {
			break
		}
		start := 0
		if t > 1 {
			start = ix.end[t-2]
		}
		if ix.hash[t-1] == h && bytes.Equal(ix.arena[start:ix.end[t-1]], key) {
			return t - 1, false
		}
	}
	n = len(ix.hash)
	ix.place(h, n)
	ix.hash = append(ix.hash, h)
	ix.arena = append(ix.arena, key...)
	ix.end = append(ix.end, len(ix.arena))
	return n, true
}

// place files key number n under hash h in the first free slot of its probe
// sequence.
func (ix *keyIndex) place(h uint64, n int) {
	mask := uint64(len(ix.table) - 1)
	i := h & mask
	for ix.table[i] != 0 {
		i = (i + 1) & mask
	}
	ix.table[i] = int32(n + 1)
}
