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
// database; like a Plan it embeds *Table pointers, so a statistics epoch
// change (DDL, ANALYZE, Restore) retires it.
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
	epoch uint64 // Engine.statsEpoch at compile time
	tbl   *Table

	// INSERT: the table position each VALUES column fills, and the rows.
	pos  []int
	rows [][]*bexpr

	// UPDATE and DELETE: the driving access with the whole WHERE as its
	// filter, run by the scan operator; UPDATE's assignments.
	access *planNode
	scan   scanIter
	setPos []int
	sets   []*bexpr

	rt runState
}

// writePlanFor returns st's write plan for the session's database, compiling
// it on first use and again when the statistics epoch has moved. Engine lock
// held.
func (e *Engine) writePlanFor(s *Session, st *Statement) (*writePlan, error) {
	slot := -1
	for i, wp := range st.writes {
		if strings.EqualFold(wp.db, s.db) {
			if wp.epoch == e.statsEpoch {
				return wp, nil
			}
			slot = i
		}
	}
	wp, err := e.compileWrite(s, st.stmt)
	if err != nil {
		return nil, err
	}
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
	)
	switch st := stmt.(type) {
	case *InsertStmt:
		ref, insert = st.Table, st
	case *UpdateStmt:
		ref, sets, where = st.Table, st.Sets, st.Where
	case *DeleteStmt:
		ref, where = st.Table, st.Where
	}
	_, tbl, err := s.resolveTable(ref)
	if err != nil {
		return nil, err
	}
	wp := &writePlan{db: strings.ToLower(s.db), epoch: e.statsEpoch, tbl: tbl}
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
	if wp.sets != nil {
		verb = "update"
	}
	est := strconv.Itoa(int(n.estRows))
	return n.kind.String() + " " + n.detail + " (" + verb + " est=" + est + " cost=" + est + ")"
}

// execWrite runs a compiled write. Engine lock held.
func (e *Engine) execWrite(s *Session, wp *writePlan, args []Value) (*Result, error) {
	rt := &wp.rt
	rt.e, rt.s, rt.args = e, s, args
	rt.stats = ExecStats{Class: ClassWrite}
	res := &Result{}
	var err error
	switch {
	case wp.access == nil:
		err = wp.insert(rt, res)
	case wp.sets != nil:
		err = wp.update(rt, res)
	default:
		err = wp.delete(rt, res)
	}
	res.Stats = rt.stats
	rt.end()
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

func (wp *writePlan) insert(rt *runState, res *Result) error {
	tbl := wp.tbl
	inserted := make([]*Row, 0, len(wp.rows))
	for _, row := range wp.rows {
		var r *Row
		vals := make([]Value, len(tbl.Columns)) // unset columns are NULL
		err := rt.fill(vals, wp.pos, row)
		if err == nil {
			r, err = tbl.Insert(vals)
		}
		if err != nil {
			// Undo prior rows of this statement for atomicity.
			for _, prev := range inserted {
				tbl.Delete(prev)
			}
			return err
		}
		inserted = append(inserted, r)
	}
	for _, r := range inserted {
		r.begin = provisionalVersion
		if rt.s.inTxn {
			r.txn = rt.s
		}
		if rt.e.Format == FormatRow {
			res.RowSQL = append(res.RowSQL, renderRowInsert(tbl, r.vals))
		}
	}
	rt.stats.RowsAffected = len(inserted)
	rt.s.addEffect(effect{tbl: tbl, inserted: inserted})
	return nil
}

// targets runs the driving access and returns the rows the WHERE keeps,
// collected before any of them changes (a change moves index buckets).
func (wp *writePlan) targets() ([]*Row, error) {
	it := &wp.scan
	it.reset()
	var out []*Row
	for {
		ok, err := it.next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, it.rows[it.i-1])
	}
}

func (wp *writePlan) update(rt *runState, res *Result) error {
	tbl, s := wp.tbl, rt.s
	targets, err := wp.targets()
	if err != nil {
		return err
	}
	done := make([]rewrite, 0, len(targets))
	for _, r := range targets {
		// Assignments read the row as it was: one never sees another's.
		rt.live[0] = r.vals
		newVals := append([]Value(nil), r.vals...)
		err := rt.fill(newVals, wp.setPos, wp.sets)
		w := rewrite{r: r, old: r.vals}
		if r.txn == nil {
			// Committed image: supersede it on the version chain. A row
			// already provisional (same-transaction rewrite, or a foreign
			// open writer) is overwritten in place — intra-transaction
			// rewrites create no versions, and concurrent writers to one
			// row keep the engine's last-write-wins semantics.
			w.pushed = &rowVersion{vals: r.vals, begin: r.begin, prev: r.prev}
		}
		if err == nil {
			err = tbl.Update(r, newVals)
		}
		if err != nil {
			for i := len(done) - 1; i >= 0; i-- {
				done[i].undo(tbl)
			}
			return err
		}
		if w.pushed != nil {
			r.prev = w.pushed
			r.begin = provisionalVersion
			if s.inTxn {
				r.txn = s
			}
		}
		done = append(done, w)
		if rt.e.Format == FormatRow {
			res.RowSQL = append(res.RowSQL, renderRowUpdate(tbl, w.old, r.vals))
		}
	}
	rt.stats.RowsAffected = len(done)
	if len(done) > 0 {
		s.addEffect(effect{tbl: tbl, updated: done})
	}
	return nil
}

func (wp *writePlan) delete(rt *runState, res *Result) error {
	tbl, s := wp.tbl, rt.s
	targets, err := wp.targets()
	if err != nil {
		return err
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
		if rt.e.Format == FormatRow {
			res.RowSQL = append(res.RowSQL, renderRowDelete(tbl, r.vals))
		}
	}
	rt.stats.RowsAffected = len(targets)
	if len(targets) > 0 {
		s.addEffect(effect{tbl: tbl, deleted: targets})
	}
	return nil
}
