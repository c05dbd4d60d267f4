package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// A writePlan is a compiled INSERT, UPDATE or DELETE: the target table and
// column positions resolved, VALUES / SET / WHERE bound by the resolver to
// bexpr over a one-slot frame (? placeholders read the argument vector at
// evaluation time, as in a SELECT plan), and the UPDATE/DELETE driving access
// decided once. A prepared Statement keeps its current write plan per
// database; like a Plan it embeds *Table pointers, so a catalog epoch change
// (CREATE TABLE, DROP TABLE, Restore) retires it. Nothing else does: it read
// no statistics, so it outlives every ANALYZE.
//
// The driving access is rule-based, not costed: the first WHERE conjunct that
// is an equality between an indexed column and a row-independent expression
// picks that index (drivingAccess, shared with the naive SELECT planner),
// anything else scans the heap. ExecStats of a write is what the server's
// cost model charges on the master and again on every replica, so letting the
// cost-based planner choose here is a cost-model change with its own
// recalibration. Writes always see the latest images: visibility never
// degrades the access the way it does for a snapshot SELECT.
type writePlan struct {
	db    string // lower-cased session database the plan was compiled for
	epoch uint64 // Engine.catalogEpoch at compile time
	tbl   *Table
	kind  effectKind

	// INSERT: the table position each VALUES column fills, and the rows.
	pos  []int
	rows [][]*bexpr

	// UPDATE and DELETE: the driving access with the whole WHERE as its
	// filter, run by the scan operator; UPDATE's assignments.
	access *planNode
	scan   scanIter
	setPos []int
	sets   []*bexpr
	hits   []*Row // targets' reused backing

	rt runState
}

// writePlanFor returns st's write plan for the session's database, compiling
// it on first use and again when the catalog epoch has moved. Engine lock
// held.
func (e *Engine) writePlanFor(s *Session, st *Statement) (*writePlan, error) {
	slot := -1
	for i, wp := range st.writes {
		if strings.EqualFold(wp.db, s.db) {
			if wp.epoch == e.catalogEpoch {
				return wp, nil
			}
			slot = i
		}
	}
	wp, err := e.compileWrite(s, st.stmt)
	if err != nil {
		return nil, err
	}
	e.planBuilds++
	if slot < 0 {
		st.writes = append(st.writes, wp)
	} else {
		st.writes[slot] = wp
	}
	return wp, nil
}

// compileWrite builds the write plan for an INSERT, UPDATE or DELETE. Engine
// lock held.
func (e *Engine) compileWrite(s *Session, stmt Stmt) (*writePlan, error) {
	var (
		ref    TableRef
		insert *InsertStmt
		sets   []Assignment
		where  Expr
		kind   effectKind
	)
	switch st := stmt.(type) {
	case *InsertStmt:
		ref, insert, kind = st.Table, st, effInsert
	case *UpdateStmt:
		ref, sets, where, kind = st.Table, st.Sets, st.Where, effUpdate
	case *DeleteStmt:
		ref, where, kind = st.Table, st.Where, effDelete
	}
	_, tbl, err := s.resolveTable(ref)
	if err != nil {
		return nil, err
	}
	wp := &writePlan{db: strings.ToLower(s.db), epoch: e.catalogEpoch, tbl: tbl, kind: kind}
	wp.rt.live = make([][]Value, 1)
	wp.rt.frame = wp.rt.live

	if insert != nil {
		for _, name := range insert.Columns {
			pos, ok := tbl.ColPos(name)
			if !ok {
				return nil, fmt.Errorf("sqlengine: unknown column %s in INSERT", name)
			}
			wp.pos = append(wp.pos, pos)
		}
		if len(insert.Columns) == 0 {
			for i := range tbl.Columns {
				wp.pos = append(wp.pos, i)
			}
		}
		r := &resolver{} // VALUES see no table: a column reference there is unknown
		for _, row := range insert.Rows {
			if len(row) != len(wp.pos) {
				return nil, fmt.Errorf("sqlengine: INSERT row has %d values, want %d", len(row), len(wp.pos))
			}
			wp.rows = append(wp.rows, r.exprs(row...))
		}
		return wp, r.err
	}

	pt := planTable{display: ref.refName(), lower: strings.ToLower(ref.refName()), tbl: tbl}
	r := &resolver{tables: []planTable{pt}}
	for _, a := range sets {
		pos, ok := tbl.ColPos(a.Column)
		if !ok {
			return nil, fmt.Errorf("sqlengine: unknown column %s in UPDATE", a.Column)
		}
		wp.setPos = append(wp.setPos, pos)
		wp.sets = append(wp.sets, r.expr(a.Value))
	}
	n := &planNode{eqCol: -1}
	if where != nil {
		n.filters = []Expr{where}
	}
	drivingAccess(n, pt, where)
	n.where, n.eq = r.exprs(n.filters...), r.expr(n.eqExpr)
	wp.access = n
	wp.scan = scanIter{rt: &wp.rt, n: n}
	return wp, r.err
}

// explainLine renders an UPDATE's or DELETE's driving access in the plan-line
// format, the verb marking it as a write.
func (wp *writePlan) explainLine() string {
	n, verb := wp.access, "delete"
	if wp.kind == effUpdate {
		verb = "update"
	}
	est := strconv.Itoa(int(n.estRows))
	return n.kind.String() + " " + n.detail + " (" + verb + " est=" + est + " cost=" + est + ")"
}

// execWrite runs a compiled write into out. Engine lock held.
func (e *Engine) execWrite(s *Session, wp *writePlan, args []Value, out *Reply) (*Result, error) {
	rt := &wp.rt
	rt.e, rt.s, rt.args = e, s, args
	rt.stats = ExecStats{Class: ClassWrite}
	*out = Reply{}
	res := &out.Result
	lo := len(s.log)
	err := wp.run(rt, res)
	if err != nil {
		s.undoTo(lo)
	}
	if rt.stats.RowsAffected = len(s.log) - lo; rt.stats.RowsAffected > 0 && s.inTxn {
		// Provisional writes force other readers onto the chain-resolving scan.
		s.provisional++
		e.provisional++
	}
	res.Stats = rt.stats
	rt.end()
	clear(wp.hits)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fill evaluates xs against the current frame into vals at positions pos.
func (rt *runState) fill(vals []Value, pos []int, xs []*bexpr) error {
	for i, x := range xs {
		v, err := x.eval(rt)
		if err != nil {
			return err
		}
		vals[pos[i]] = v
	}
	return nil
}

// run executes the statement row by row, appending one change per row it
// affects to the session's log — what execWrite undoes if it fails part-way.
func (wp *writePlan) run(rt *runState, res *Result) error {
	tbl, s, rowFormat := wp.tbl, rt.s, rt.e.Format == FormatRow
	if wp.kind == effInsert {
		for _, row := range wp.rows {
			img := tbl.store.image(nil) // unset columns are NULL
			if err := rt.fill(img, wp.pos, row); err != nil {
				return err
			}
			c, err := tbl.put(nil, img, provisionalVersion, s.writer())
			if err != nil {
				return err
			}
			s.log = append(s.log, c)
			if rowFormat {
				res.RowSQL = append(res.RowSQL, renderRowInsert(tbl, img))
			}
		}
		return nil
	}
	// The rows the WHERE keeps are collected before any of them changes: a
	// change moves index buckets.
	it := &wp.scan
	it.reset()
	wp.hits = wp.hits[:0]
	for ok, err := it.next(); ok || err != nil; ok, err = it.next() {
		if err != nil {
			return err
		}
		wp.hits = append(wp.hits, it.cur.row())
	}
	for _, r := range wp.hits {
		if wp.kind == effDelete {
			s.log = append(s.log, tbl.store.bury(r, s.writer()))
			if rowFormat {
				res.RowSQL = append(res.RowSQL, renderRowDelete(tbl, r.Values()))
			}
			continue
		}
		// Assignments read the row as it was: one never sees another's.
		rt.live[0] = r.Values()
		img := tbl.store.image(r.Values())
		if err := rt.fill(img, wp.setPos, wp.sets); err != nil {
			return err
		}
		c, err := tbl.put(r, img, provisionalVersion, s.writer())
		if err != nil {
			return err
		}
		s.log = append(s.log, c)
		if rowFormat {
			res.RowSQL = append(res.RowSQL, renderRowUpdate(tbl, c.old, img))
		}
	}
	return nil
}
