package sqlengine

import "fmt"

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
// both pin it. SELECT goes through the planner; UPDATE and DELETE render the
// driving access of their write plan with the same operator vocabulary.
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
			if _, err := e.execPlan(s, p, args, acts, new(Reply)); err != nil {
				return nil, err
			}
		}
		lines = p.Lines(acts)
	case *UpdateStmt, *DeleteStmt:
		// Compiled afresh: the estimate reads the table as it is now.
		wp, err := e.compileWrite(s, inner)
		if err != nil {
			return nil, err
		}
		lines = []string{wp.explainLine()}
	default:
		return nil, fmt.Errorf("sqlengine: cannot EXPLAIN %T", st.Inner)
	}

	set := &ResultSet{Columns: []string{"plan"}}
	for _, l := range lines {
		set.Rows = append(set.Rows, []Value{NewString(l)})
	}
	return &Result{Set: set, Stats: ExecStats{Class: ClassRead, RowsReturned: len(set.Rows)}, SQL: st.String()}, nil
}
