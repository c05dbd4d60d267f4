package sqlengine

import (
	"fmt"
	"strings"
)

// exec executes a non-transaction statement. Reads and writes run the plan
// they keep on owner, the prepared statement, with args carried separately,
// and answer in out.
func (e *Engine) exec(s *Session, owner *Statement, args []Value, out *Reply) (*Result, error) {
	switch st := owner.stmt.(type) {
	case *CreateDatabaseStmt:
		if err := e.CreateDatabase(st.Name, st.IfNotExists); err != nil {
			return nil, err
		}
		return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
	case *CreateTableStmt:
		return e.execCreateTable(s, st)
	case *InsertStmt, *UpdateStmt, *DeleteStmt:
		wp, err := e.writePlanFor(s, owner)
		if err != nil {
			return nil, err
		}
		return e.execWrite(s, wp, args, out)
	case *SelectStmt:
		p, err := e.planFor(s, owner, st)
		if err != nil {
			return nil, err
		}
		return e.execPlan(s, p, args, out)
	default:
		return nil, fmt.Errorf("sqlengine: cannot execute %T", st)
	}
}

func (e *Engine) execCreateTable(s *Session, st *CreateTableStmt) (*Result, error) {
	dbName := st.Table.DB
	if dbName == "" {
		dbName = s.db
	}
	if dbName == "" {
		return nil, fmt.Errorf("sqlengine: no database selected")
	}
	db, ok := e.dbs[strings.ToLower(dbName)]
	if !ok {
		return nil, fmt.Errorf("sqlengine: unknown database %s", dbName)
	}
	key := strings.ToLower(st.Table.Name)
	if _, exists := db.tables[key]; exists {
		if st.IfNotExists {
			return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
		}
		return nil, fmt.Errorf("sqlengine: table %s.%s exists", dbName, st.Table.Name)
	}
	tbl, err := NewTable(st.Table.Name, st.Columns, st.PrimaryKey, st.Indexes)
	if err != nil {
		return nil, err
	}
	db.tables[key] = tbl
	e.relist()
	e.catalogEpoch++
	return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
}

// Conjuncts flattens an AND tree into its top-level conjuncts (nil for a nil
// expression): what the planner assigns to nodes and the shard router looks
// for a shard-key equality among.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// joinEqPattern finds `rightRef.col = expr` (or mirrored) in the ON clause
// where expr does not mention rightRef; returns the column position or -1.
func joinEqPattern(on Expr, rightRef string, rightTbl *Table) (int, Expr) {
	for _, c := range Conjuncts(on) {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		for _, try := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
			col, ok := try[0].(*ColRef)
			if !ok || strings.ToLower(col.Table) != rightRef {
				continue
			}
			pos, ok := rightTbl.ColPos(col.Name)
			if !ok {
				continue
			}
			mentionsRight := false
			walkExpr(try[1], func(x Expr) {
				if cr, ok := x.(*ColRef); ok && strings.ToLower(cr.Table) == rightRef {
					mentionsRight = true
				}
			})
			if !mentionsRight {
				return pos, try[1]
			}
		}
	}
	return -1, nil
}
