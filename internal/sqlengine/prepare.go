package sqlengine

import (
	"fmt"
	"strings"
)

// Statement is a prepared statement: the SQL text parsed and normalized
// once, shareable across sessions and argument vectors. The engine keeps one
// Statement per normalized text, so Prepare of a known text allocates
// nothing. A SELECT keeps its current plan per (database, planner mode) on
// the statement itself until a statistics epoch change retires it, so
// repeated Runs do no per-call planning work either.
//
// The handle carries no resources beyond cache entries, but dropping it
// unused almost always indicates a lost result: cloudrepl-lint's closecheck
// flags Prepare results that are never consumed.
type Statement struct {
	eng     *Engine
	norm    string
	stmt    Stmt
	nparams int
	plans   []*Plan // guarded by eng.mu
}

// Prepare parses sql (through the parse cache) and returns a prepared
// statement. Any statement kind can be prepared; only SELECTs are planned.
func (e *Engine) Prepare(sql string) (*Statement, error) {
	if v, ok := e.parseCache.Load(sql); ok {
		return v.(*Statement), nil
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	norm := stmt.String()
	v, _ := e.parseCache.LoadOrStore(norm, &Statement{eng: e, norm: norm, stmt: stmt, nparams: countParams(stmt)})
	e.parseCache.Store(sql, v)
	return v.(*Statement), nil
}

// planFor returns the statement's current plan for sel (the statement itself,
// or the SELECT an EXPLAIN wraps) under the session's database and the
// engine's planner mode, building it on first use and rebuilding it when the
// statistics epoch has moved or a table has drifted past the staleness
// threshold — writes don't advance the epoch, so a hot plan could otherwise
// outlive arbitrary data drift. Engine lock held.
func (e *Engine) planFor(s *Session, st *Statement, sel *SelectStmt) (*Plan, error) {
	slot := -1
	for i, p := range st.plans {
		if p.naive == e.NaivePlan && strings.EqualFold(p.db, s.db) {
			if p.epoch == e.statsEpoch && (p.naive || !p.staleStats()) {
				return p, nil
			}
			slot = i
		}
	}
	p, err := e.buildPlanLocked(s, sel, e.NaivePlan)
	if err != nil {
		return nil, err
	}
	if slot < 0 {
		st.plans = append(st.plans, p)
	} else {
		st.plans[slot] = p
	}
	return p, nil
}

// Norm returns the normalized (canonical) rendering that identifies the
// statement: textual variants with identical structure share one Statement.
func (st *Statement) Norm() string { return st.norm }

// NumParams returns the number of ? placeholders the statement requires.
func (st *Statement) NumParams() int { return st.nparams }

// Run executes the statement on a session with the given arguments. SELECTs
// run their current plan (built on first use or after a statistics epoch
// change); writes bind args into the statement text for the binlog, exactly
// as Session.Exec always has.
func (st *Statement) Run(s *Session, args ...Value) (*Result, error) {
	return s.run(st, args)
}

// Query is Run for statements expected to return rows.
func (st *Statement) Query(s *Session, args ...Value) (*ResultSet, error) {
	res, err := st.Run(s, args...)
	if err != nil {
		return nil, err
	}
	if res.Set == nil {
		return nil, fmt.Errorf("sqlengine: statement returned no result set")
	}
	return res.Set, nil
}

// Plan returns the execution plan the engine will use for this statement on
// s's current database, building and caching it if needed. Only SELECT
// statements have plans. The returned Plan is immutable; iterate its
// rendering via Lines/Explain. The plan reflects statistics at call time —
// a later Run may plan afresh if the statistics epoch has advanced.
func (st *Statement) Plan(s *Session) (*Plan, error) {
	sel, ok := st.stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlengine: cannot plan %T", st.stmt)
	}
	e := st.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.planFor(s, st, sel)
}

// ExplainString renders the plan tree for this statement (SELECT only) in
// the stable EXPLAIN format.
func (st *Statement) ExplainString(s *Session) (string, error) {
	p, err := st.Plan(s)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}
