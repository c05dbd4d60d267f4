package sqlengine

import (
	"fmt"
	"strings"
)

// execLocked executes a non-transaction statement. The engine mutex is held
// by the caller. Write statements arrive pre-bound (args interpolated);
// reads arrive as the original parameterized AST with args carried
// separately, and find their plan on owner, the prepared statement.
func (e *Engine) execLocked(s *Session, owner *Statement, stmt Stmt, args []Value) (*Result, error) {
	switch st := stmt.(type) {
	case *CreateDatabaseStmt:
		if err := e.createDatabaseLocked(st.Name, st.IfNotExists); err != nil {
			return nil, err
		}
		return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
	case *CreateTableStmt:
		return e.execCreateTable(s, st)
	case *DropTableStmt:
		return e.execDropTable(s, st)
	case *TruncateStmt:
		_, tbl, err := s.resolveTable(st.Table)
		if err != nil {
			return nil, err
		}
		n := tbl.NumRows()
		tbl.Truncate()
		e.bumpStatsEpochLocked()
		return &Result{Stats: ExecStats{Class: ClassDDL, RowsAffected: n}, SQL: st.String()}, nil
	case *InsertStmt:
		return e.execInsert(s, st)
	case *UpdateStmt:
		return e.execUpdate(s, st)
	case *DeleteStmt:
		return e.execDelete(s, st)
	case *SelectStmt:
		p, err := e.planFor(s, owner, st)
		if err != nil {
			return nil, err
		}
		return e.execPlan(s, p, args, nil)
	case *ExplainStmt:
		return e.execExplain(s, owner, st, args)
	case *ShowStmt:
		return e.execShow(s, st)
	case *DescribeStmt:
		return e.execDescribe(s, st)
	default:
		return nil, fmt.Errorf("sqlengine: cannot execute %T", stmt)
	}
}

func (e *Engine) createDatabaseLocked(name string, ifNotExists bool) error {
	key := strings.ToLower(name)
	if _, ok := e.dbs[key]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("sqlengine: database %s exists", name)
	}
	e.dbs[key] = &Database{Name: name, tables: make(map[string]*Table)}
	return nil
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
	e.bumpStatsEpochLocked()
	return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
}

func (e *Engine) execDropTable(s *Session, st *DropTableStmt) (*Result, error) {
	dbName := st.Table.DB
	if dbName == "" {
		dbName = s.db
	}
	db, ok := e.dbs[strings.ToLower(dbName)]
	if !ok {
		return nil, fmt.Errorf("sqlengine: unknown database %s", dbName)
	}
	key := strings.ToLower(st.Table.Name)
	if _, exists := db.tables[key]; !exists {
		if st.IfExists {
			return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
		}
		return nil, fmt.Errorf("sqlengine: unknown table %s.%s", dbName, st.Table.Name)
	}
	delete(db.tables, key)
	e.bumpStatsEpochLocked()
	return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
}

func (e *Engine) execInsert(s *Session, st *InsertStmt) (*Result, error) {
	_, tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	// Map statement columns to table positions.
	var positions []int
	if len(st.Columns) == 0 {
		positions = make([]int, len(tbl.Columns))
		for i := range positions {
			positions[i] = i
		}
	} else {
		for _, name := range st.Columns {
			pos, ok := tbl.ColPos(name)
			if !ok {
				return nil, fmt.Errorf("sqlengine: unknown column %s in INSERT", name)
			}
			positions = append(positions, pos)
		}
	}
	sc := &scope{eng: e}
	stats := ExecStats{Class: ClassWrite}
	var inserted []*Row
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(positions) {
			return nil, fmt.Errorf("sqlengine: INSERT row has %d values, want %d", len(exprRow), len(positions))
		}
		vals := make([]Value, len(tbl.Columns))
		for i := range vals {
			vals[i] = Null
		}
		for i, ex := range exprRow {
			v, err := sc.eval(ex)
			if err != nil {
				return nil, err
			}
			vals[positions[i]] = v
		}
		r, err := tbl.Insert(vals)
		if err != nil {
			// Undo prior rows of this statement for atomicity.
			for _, prev := range inserted {
				tbl.Delete(prev)
			}
			return nil, err
		}
		inserted = append(inserted, r)
		stats.RowsAffected++
	}
	rows := inserted
	for _, r := range rows {
		r.begin = provisionalVersion
		if s.inTxn {
			r.txn = s
		}
	}
	s.addStamp(func(cv uint64) {
		for _, r := range rows {
			r.begin = cv
			r.txn = nil
		}
	})
	s.addUndo(func() {
		for i := len(rows) - 1; i >= 0; i-- {
			tbl.Delete(rows[i])
		}
	})
	res := &Result{Stats: stats, SQL: st.String()}
	if e.Format == FormatRow {
		for _, r := range inserted {
			res.RowSQL = append(res.RowSQL, renderRowInsert(tbl, r.vals))
		}
	}
	// In statement format the binlog stores the original statement text so
	// the slave re-evaluates builtins against its own clock.
	return res, nil
}

func (e *Engine) execUpdate(s *Session, st *UpdateStmt) (*Result, error) {
	_, tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	stats := ExecStats{Class: ClassWrite}
	cands, usedIdx := pickCandidates(tbl, st.Table.refName(), st.Where, e)
	stats.UsedIndex = usedIdx
	stats.RowsExamined = len(cands)
	sc := &scope{eng: e, tables: []planTable{{lower: strings.ToLower(st.Table.refName()), tbl: tbl}}}

	// Pre-resolve SET columns.
	var setPos []int
	for _, a := range st.Sets {
		pos, ok := tbl.ColPos(a.Column)
		if !ok {
			return nil, fmt.Errorf("sqlengine: unknown column %s in UPDATE", a.Column)
		}
		setPos = append(setPos, pos)
	}

	var targets []*Row
	for _, r := range cands {
		sc.vals = r.vals
		if st.Where != nil {
			ok, err := sc.eval(st.Where)
			if err != nil {
				return nil, err
			}
			if ok.IsNull() || !ok.Bool() {
				continue
			}
		}
		targets = append(targets, r)
	}
	type undoRec struct {
		r      *Row
		old    []Value
		pushed *rowVersion
	}
	popChain := func(rec undoRec) {
		if rec.pushed != nil {
			rec.r.prev = rec.pushed.prev
			rec.r.begin = rec.pushed.begin
			rec.r.txn = nil
		}
	}
	var undos []undoRec
	for _, r := range targets {
		sc.vals = r.vals
		newVals := append([]Value(nil), r.vals...)
		changed := false
		for i, a := range st.Sets {
			v, err := sc.eval(a.Value)
			if err != nil {
				return nil, err
			}
			newVals[setPos[i]] = v
			changed = true
		}
		if !changed {
			continue
		}
		old := append([]Value(nil), r.vals...)
		var pushed *rowVersion
		if r.txn == nil {
			// Committed image: supersede it on the version chain. A row
			// already provisional (same-transaction rewrite, or a foreign
			// open writer) is overwritten in place — intra-transaction
			// rewrites create no versions, and concurrent writers to one
			// row keep the engine's last-write-wins semantics.
			pushed = &rowVersion{vals: old, begin: r.begin, prev: r.prev}
		}
		if err := tbl.Update(r, newVals); err != nil {
			for i := len(undos) - 1; i >= 0; i-- {
				_ = tbl.Update(undos[i].r, undos[i].old)
				popChain(undos[i])
			}
			return nil, err
		}
		if pushed != nil {
			r.prev = pushed
			r.begin = provisionalVersion
			if s.inTxn {
				r.txn = s
			}
		}
		undos = append(undos, undoRec{r, old, pushed})
		stats.RowsAffected++
	}
	if len(undos) > 0 {
		recs := undos
		s.addStamp(func(cv uint64) {
			for _, rec := range recs {
				if rec.pushed != nil {
					rec.pushed.end = cv
					rec.r.begin = cv
					rec.r.txn = nil
				}
			}
		})
		s.addUndo(func() {
			for i := len(recs) - 1; i >= 0; i-- {
				_ = tbl.Update(recs[i].r, recs[i].old)
				popChain(recs[i])
			}
		})
	}
	res := &Result{Stats: stats, SQL: st.String()}
	if e.Format == FormatRow {
		for _, rec := range undos {
			res.RowSQL = append(res.RowSQL, renderRowUpdate(tbl, rec.old, rec.r.vals))
		}
	}
	return res, nil
}

func (e *Engine) execDelete(s *Session, st *DeleteStmt) (*Result, error) {
	_, tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	stats := ExecStats{Class: ClassWrite}
	cands, usedIdx := pickCandidates(tbl, st.Table.refName(), st.Where, e)
	stats.UsedIndex = usedIdx
	stats.RowsExamined = len(cands)
	sc := &scope{eng: e, tables: []planTable{{lower: strings.ToLower(st.Table.refName()), tbl: tbl}}}
	var targets []*Row
	for _, r := range cands {
		sc.vals = r.vals
		if st.Where != nil {
			ok, err := sc.eval(st.Where)
			if err != nil {
				return nil, err
			}
			if ok.IsNull() || !ok.Bool() {
				continue
			}
		}
		targets = append(targets, r)
	}
	for _, r := range targets {
		// MVCC delete: out of the heap, primary key and indexes (latest
		// readers must not see it), into the graveyard for snapshot readers
		// until chain GC reclaims it. The end stamp finalizes at commit.
		tbl.Delete(r)
		tbl.graveyard = append(tbl.graveyard, r)
		r.end = provisionalVersion
		if s.inTxn {
			r.txn = s
		}
		stats.RowsAffected++
	}
	if len(targets) > 0 {
		rows := targets
		s.addStamp(func(cv uint64) {
			for _, r := range rows {
				r.end = cv
				r.txn = nil
			}
		})
		s.addUndo(func() {
			for i := len(rows) - 1; i >= 0; i-- {
				rows[i].end = 0
				rows[i].txn = nil
				tbl.relink(rows[i])
			}
		})
	}
	res := &Result{Stats: stats, SQL: st.String()}
	if e.Format == FormatRow {
		for _, r := range targets {
			res.RowSQL = append(res.RowSQL, renderRowDelete(tbl, r.vals))
		}
	}
	return res, nil
}

// conjuncts flattens an AND tree.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// constEval evaluates an expression containing no column references.
func constEval(e Expr, eng *Engine) (Value, bool) {
	hasCol := false
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*ColRef); ok {
			hasCol = true
		}
	})
	if hasCol {
		return Null, false
	}
	sc := &scope{eng: eng}
	v, err := sc.eval(e)
	if err != nil {
		return Null, false
	}
	return v, true
}

// pickCandidates selects the scan set for a table given a WHERE clause: an
// index-equality bucket when some conjunct is `col = const` over an indexed
// column, otherwise the whole heap.
func pickCandidates(tbl *Table, refName string, where Expr, eng *Engine) ([]*Row, bool) {
	ref := strings.ToLower(refName)
	for _, c := range conjuncts(where) {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		for _, try := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
			col, ok := try[0].(*ColRef)
			if !ok {
				continue
			}
			if col.Table != "" && strings.ToLower(col.Table) != ref {
				continue
			}
			pos, ok := tbl.ColPos(col.Name)
			if !ok {
				continue
			}
			v, ok := constEval(try[1], eng)
			if !ok {
				continue
			}
			if rows, usable := tbl.lookupEq(pos, v, new([1]*Row)); usable {
				return rows, true
			}
		}
	}
	return tbl.Rows(), false
}

// joinEqPattern finds `rightRef.col = expr` (or mirrored) in the ON clause
// where expr does not mention rightRef; returns the column position or -1.
func joinEqPattern(on Expr, rightRef string, rightTbl *Table) (int, Expr) {
	for _, c := range conjuncts(on) {
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
