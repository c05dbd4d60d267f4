package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// ExplainStmt is EXPLAIN [ANALYZE] <statement>. Plain EXPLAIN renders the
// plan the planner would choose without executing the statement; EXPLAIN
// ANALYZE executes it and annotates every operator with its actual output
// row count.
type ExplainStmt struct {
	Inner   Stmt
	Analyze bool
}

func (s *ExplainStmt) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Inner.String()
	}
	return "EXPLAIN " + s.Inner.String()
}
func (*ExplainStmt) stmt() {}

// execExplain renders the plan tree for the inner statement: a single "plan"
// column, one operator per row, in the byte-deterministic format documented
// on planNode.line — the A-PLAN decision log and the EXPLAIN golden test
// both pin it. SELECT goes through the planner; UPDATE and DELETE render
// their driving access with the same operator vocabulary.
func (e *Engine) execExplain(s *Session, owner *Statement, st *ExplainStmt, args []Value) (*Result, error) {
	var lines []string
	switch inner := st.Inner.(type) {
	case *SelectStmt:
		p, err := e.planFor(s, owner, inner)
		if err != nil {
			return nil, err
		}
		var acts []int64
		if st.Analyze {
			acts = make([]int64, len(p.nodes))
			if _, err := e.execPlan(s, p, args, acts); err != nil {
				return nil, err
			}
		}
		lines = p.Lines(acts)
	case *UpdateStmt:
		lines = []string{writeAccessLine(s, inner.Table, inner.Where, "update")}
		if strings.HasPrefix(lines[0], "!") {
			return nil, fmt.Errorf("sqlengine: %s", lines[0][1:])
		}
	case *DeleteStmt:
		lines = []string{writeAccessLine(s, inner.Table, inner.Where, "delete")}
		if strings.HasPrefix(lines[0], "!") {
			return nil, fmt.Errorf("sqlengine: %s", lines[0][1:])
		}
	default:
		return nil, fmt.Errorf("sqlengine: cannot EXPLAIN %T", st.Inner)
	}

	set := &ResultSet{Columns: []string{"plan"}}
	for _, l := range lines {
		set.Rows = append(set.Rows, []Value{NewString(l)})
	}
	return &Result{Set: set, Stats: ExecStats{Class: ClassRead, RowsReturned: len(set.Rows)}, SQL: st.String()}, nil
}

// writeAccessLine renders the driving access an UPDATE/DELETE would use (the
// write executor's pickCandidates logic), in the plan-line format. A leading
// "!" marks a resolution error for the caller to surface.
func writeAccessLine(s *Session, ref TableRef, where Expr, verb string) string {
	_, tbl, err := s.resolveTable(ref)
	if err != nil {
		return "!" + strings.TrimPrefix(err.Error(), "sqlengine: ")
	}
	op := "scan"
	detail := ref.refName()
	est := len(tbl.rows)
	for _, c := range conjuncts(where) {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		found := false
		for _, try := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
			col, ok := try[0].(*ColRef)
			if !ok {
				continue
			}
			if col.Table != "" && strings.ToLower(col.Table) != strings.ToLower(ref.refName()) {
				continue
			}
			pos, ok := tbl.ColPos(col.Name)
			if !ok {
				continue
			}
			if !runtimeConst(try[1]) {
				continue
			}
			name, unique, usable := usableEqIndex(tbl, pos)
			if !usable {
				continue
			}
			op = "index_scan"
			detail = ref.refName() + " via " + name + " on (" + tbl.Columns[pos].Name + " = " + try[1].String() + ")"
			est = int(eqBucketEst(tbl, pos, unique))
			found = true
			break
		}
		if found {
			break
		}
	}
	if where != nil {
		detail += " filter (" + where.String() + ")"
	}
	return op + " " + detail + " (" + verb + " est=" + strconv.Itoa(est) + " cost=" + strconv.Itoa(est) + ")"
}
