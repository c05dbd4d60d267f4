package shard

import (
	"fmt"
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
	// plan is a routeScatter's per-cell statement and the merge of the legs'
	// results. Every connection of the cluster runs the one cached here, and
	// with it the one scratch: a merge never parks, so no two overlap.
	plan *sqlengine.Merge
	err  error
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
	for _, conj := range sqlengine.Conjuncts(s.Where) {
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
	plan, err := sqlengine.NewMerge(s)
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
	for _, conj := range sqlengine.Conjuncts(where) {
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
