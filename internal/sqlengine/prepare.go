package sqlengine

import (
	"fmt"
	"strings"
)

// Statement is a prepared statement: the SQL text parsed and normalized
// once, shareable across sessions and argument vectors. The engine keeps one
// Statement per normalized text, so Prepare of a known text allocates
// nothing. A SELECT keeps its current plan per (database, planner mode) on
// the statement itself until the catalog or one of its own tables' statistics
// changes (Plan.current), and an INSERT, UPDATE or DELETE its compiled write
// plan per database until the catalog does (write.go), so repeated Runs do no
// per-call planning work either.
//
// The handle carries no resources beyond cache entries, but dropping it
// unused almost always indicates a lost result: cloudrepl-lint's closecheck
// flags Prepare results that are never consumed.
type Statement struct {
	eng     *Engine
	norm    string
	stmt    Stmt
	nparams int
	// tmpl renders a parameterised write's replayable text (nil for any other
	// statement).
	tmpl   *template
	plans  []*Plan      // guarded by eng.mu
	writes []*writePlan // guarded by eng.mu
}

// template is a parameterised write's normalized text cut at its ?
// placeholders: its replayable text under args is segs[0] + literal(args[0]) +
// segs[1] + …. It is built once, at Prepare, and never written again, so a
// logged write keeps it to render itself without keeping the Statement, whose
// plans point into one engine.
type template struct {
	segs []string
}

// Prepare parses sql (through the parse cache) and returns a prepared
// statement. Any statement kind can be prepared; SELECTs are planned and
// INSERT/UPDATE/DELETE compiled on first Run.
func (e *Engine) Prepare(sql string) (*Statement, error) {
	if v, ok := e.parseCache.Load(sql); ok {
		return v.(*Statement), nil
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	st := &Statement{eng: e, norm: stmt.String(), stmt: stmt, nparams: countParams(stmt)}
	if _, write := st.Table(); write && st.nparams > 0 {
		segs, err := splitParams(st.norm, st.nparams)
		if err != nil {
			return nil, err
		}
		st.tmpl = &template{segs: segs}
	}
	v, _ := e.parseCache.LoadOrStore(st.norm, st)
	e.parseCache.Store(sql, v)
	return v.(*Statement), nil
}

// CachedStatements returns the number of parse-cache entries (statement texts
// as written plus their normalized renderings). It grows with the distinct
// texts handed to Prepare and never shrinks, so it must stay bounded by the
// application's template set however many writes are replayed.
func (e *Engine) CachedStatements() int {
	n := 0
	e.parseCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// splitParams cuts a normalized statement text at its ? placeholders. The
// lexer finds them: the rendering re-parses to the same statement (the fixed
// point FuzzParse holds the parser to), so its parameter tokens are the
// statement's parameters, in order, and a ? inside a string literal is not
// one of them.
func splitParams(norm string, nparams int) ([]string, error) {
	toks, err := lex(norm)
	if err != nil {
		return nil, err
	}
	segs := make([]string, 0, nparams+1)
	from := 0
	for _, t := range toks {
		if t.kind == tokParam {
			segs = append(segs, norm[from:t.pos])
			from = t.pos + 1
		}
	}
	if len(segs) != nparams {
		return nil, fmt.Errorf("sqlengine: statement does not render to replayable text: %s", norm)
	}
	return append(segs, norm[from:]), nil
}

// appendText appends the replayable text — the normalized rendering with
// every placeholder replaced by the SQL literal of its argument — to b.
// len(args) must be the template's placeholder count.
func (t *template) appendText(b []byte, args []Value) []byte {
	for i, a := range args {
		b = a.appendSQL(append(b, t.segs[i]...))
	}
	return append(b, t.segs[len(args)]...)
}

// Logged returns what the commit hook receives when the statement, a write,
// runs with args, the argument vector copied (callers reuse theirs).
func (st *Statement) Logged(args []Value) (LoggedWrite, error) {
	if err := checkArgs(st.nparams, args); err != nil {
		return LoggedWrite{}, err
	}
	w, _ := st.logged(append([]Value(nil), args...), nil)
	return w, nil
}

// logged is the write st logs when run with args, which must be a copy no one
// writes again. A parameterised statement's text is rendered into buf only to
// be measured — buf is returned for reuse — and the write renders it again
// when something reads it.
func (st *Statement) logged(args []Value, buf []byte) (LoggedWrite, []byte) {
	if st.tmpl == nil {
		return LoggedWrite{SQL: st.norm}, buf
	}
	buf = st.tmpl.appendText(buf[:0], args)
	return LoggedWrite{Stmt: st.norm, Args: args, tmpl: st.tmpl, textLen: len(buf)}, buf
}

// Table returns the table an INSERT, UPDATE, DELETE or TRUNCATE writes.
func (st *Statement) Table() (TableRef, bool) {
	switch s := st.stmt.(type) {
	case *InsertStmt:
		return s.Table, true
	case *UpdateStmt:
		return s.Table, true
	case *DeleteStmt:
		return s.Table, true
	case *TruncateStmt:
		return s.Table, true
	}
	return TableRef{}, false
}

// planReuse, when a test sets it, sees every plan planFor hands out from the
// cache, engine lock held: the plan-reuse oracle (plan_oracle_test.go) builds
// the plan afresh beside it and compares the two. Nil outside that test.
var planReuse func(e *Engine, s *Session, st *Statement, sel *SelectStmt, cached *Plan)

// planFor returns the statement's current plan for sel (the statement itself,
// or the SELECT an EXPLAIN wraps) under the session's database and the
// engine's planner mode, building it on first use and rebuilding it when it is
// no longer current. Engine lock held.
func (e *Engine) planFor(s *Session, st *Statement, sel *SelectStmt) (*Plan, error) {
	slot := -1
	for i, p := range st.plans {
		if p.naive == e.NaivePlan && strings.EqualFold(p.db, s.db) {
			if p.current(e) {
				if planReuse != nil {
					planReuse(e, s, st, sel, p)
				}
				return p, nil
			}
			slot = i
		}
	}
	p, err := e.buildPlanLocked(s, sel, e.NaivePlan)
	if err != nil {
		return nil, err
	}
	e.planBuilds++
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
// run their current plan and writes their compiled write plan (built on first
// use, rebuilt once no longer current); a write is logged as its prepared
// form, args copied.
func (st *Statement) Run(s *Session, args ...Value) (*Result, error) {
	return s.run(st, args, LoggedWrite{}, nil)
}

// RunInto is Run answering in the caller's Reply instead of a new one (which
// a nil out still gets) — for a caller that has a larger reply of its own to
// make room in. The Result returned is out's whenever the statement is a
// SELECT or a write.
func (st *Statement) RunInto(s *Session, out *Reply, args ...Value) (*Result, error) {
	return s.run(st, args, LoggedWrite{}, out)
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
// a later Run may plan afresh once one of its tables has been re-analyzed.
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
