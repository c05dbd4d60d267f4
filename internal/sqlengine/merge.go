package sqlengine

import (
	"fmt"
	"slices"
	"strings"
)

// A Merge answers one SELECT from the results of several engines that each
// hold a share of the rows — the legs of a shard router's scatter — exactly as
// one engine holding every row would have. It is the statement taken apart
// once: CellSQL, what each engine is sent, and a Plan whose source is the legs'
// rows where another plan's is a table, so that ORDER BY, GROUP BY, DISTINCT,
// LIMIT and OFFSET over several engines are the tail's (tail.go), rule for
// rule and tie for tie.
//
//   - Rows: each engine runs the statement with its ORDER BY expressions made
//     projectable (helper columns at the end of the row, not returned) and
//     LIMIT+OFFSET rows of LIMIT — any global top K lies within the union of
//     the per-engine top Ks — and the plan orders, deduplicates and cuts the
//     legs' rows.
//   - Groups: each engine aggregates its own rows, unordered and uncut, since
//     order and cut need the global totals; the plan groups the partial rows
//     by their key columns and folds the partials — COUNT and SUM as SUM, MIN
//     as MIN, MAX as MAX — then orders and cuts.
//
// What does not decompose this way (HAVING) is refused when the Merge is
// built rather than answered wrongly.
//
// Run works in the plan's scratch, so a Merge serves one Run at a time. The
// shard router keeps one per statement text for every connection of its
// cluster, which is safe for the reason its ownership check's reused key buffer
// is: Run never parks a simulation process, and an Env runs one at a time.
type Merge struct {
	// CellSQL is the statement each engine runs: the SELECT rewritten as
	// above, its parameters in their original order.
	CellSQL string

	order []legKey  // ORDER BY, located in a leg's row
	folds []aggKind // groups: per column of a leg's row, what folds it — aggNone for a group key
	drop  int       // rows: helper columns at the end of a leg's row

	header []string // the legs' header the plan is bound to
	plan   Plan
	src    legIter
}

// legKey is one ORDER BY item as a position in a leg's row — or, under SELECT *
// whose positions only the legs' header tells, as a column name.
type legKey struct {
	pos  int // -1: by name
	name string
	desc bool
}

// NewMerge takes s apart for scatter execution.
func NewMerge(s *SelectStmt) (*Merge, error) {
	if s.Having != nil {
		return nil, fmt.Errorf("sqlengine: scatter SELECT with HAVING is not supported")
	}
	limit, limitOK := literalInt(s.Limit)
	offset, offsetOK := literalInt(s.Offset)
	if s.Limit != nil && !limitOK || s.Offset != nil && !offsetOK {
		return nil, fmt.Errorf("sqlengine: scatter SELECT with parameterized LIMIT/OFFSET is not supported")
	}
	m := &Merge{}
	p := &m.plan
	var literals resolver // LIMIT and OFFSET name nothing
	p.limit, p.offset = literals.value(s.Limit), literals.value(s.Offset)
	cell := *s
	cell.Limit, cell.Offset = nil, nil
	var err error
	if p.aggregated = s.aggregated(); p.aggregated {
		cell.OrderBy = nil
		err = m.groupShape(s)
	} else {
		if limitOK {
			cell.Limit = &Literal{V: NewInt(int64(limit + offset))}
		}
		p.distinct = s.Distinct
		err = m.rowShape(s, &cell)
	}
	if err != nil {
		return nil, err
	}
	m.CellSQL = cell.String()
	return m, nil
}

// rowShape locates the ORDER BY of a SELECT without aggregation in the row its
// cell statement returns, appending to that statement the items its select
// list lacks.
func (m *Merge) rowShape(s, cell *SelectStmt) error {
	cell.Exprs = slices.Clone(s.Exprs)
	star := len(s.Exprs) == 1 && s.Exprs[0].Star
	for _, o := range s.OrderBy {
		k := legKey{pos: findProjection(cell.Exprs, o.Expr), desc: o.Desc}
		switch {
		case k.pos >= 0:
		case star:
			c, ok := o.Expr.(*ColRef)
			if !ok {
				return fmt.Errorf("sqlengine: scatter SELECT * ordered by a non-column expression")
			}
			k.name = c.Name
		case s.Distinct:
			// A helper column would take part in what makes a row distinct.
			return fmt.Errorf("sqlengine: scatter DISTINCT ordered by an unprojected column")
		default:
			cell.Exprs = append(cell.Exprs, SelectExpr{Expr: o.Expr})
			k.pos = len(cell.Exprs) - 1
			m.drop++
		}
		m.order = append(m.order, k)
	}
	return nil
}

// groupShape decides, column by column of an aggregated SELECT, how the
// engines' partial rows fold into the global one.
func (m *Merge) groupShape(s *SelectStmt) error {
	if s.Distinct {
		return fmt.Errorf("sqlengine: scatter SELECT DISTINCT with aggregation is not supported")
	}
	for _, se := range s.Exprs {
		if se.Star {
			return fmt.Errorf("sqlengine: scatter aggregate with * projection is not supported")
		}
		agg := aggNone
		f, _ := se.Expr.(*FuncCall)
		if f != nil {
			agg = aggregates[f.Name]
		}
		switch {
		case agg == aggNone:
			if !slices.ContainsFunc(s.GroupBy, func(g Expr) bool { return g.String() == se.Expr.String() }) {
				return fmt.Errorf("sqlengine: scatter projection %s is neither aggregate nor group key", se.Expr.String())
			}
		case agg == aggCount:
			agg = aggSum
		}
		m.folds = append(m.folds, agg)
	}
	for _, g := range s.GroupBy {
		// Partial rows meet on the key columns they carry: a key the select
		// list leaves out would fold distinct groups into one.
		if !slices.ContainsFunc(s.Exprs, func(se SelectExpr) bool { return se.Expr.String() == g.String() }) {
			return fmt.Errorf("sqlengine: scatter GROUP BY %s is not projected", g.String())
		}
	}
	for _, o := range s.OrderBy {
		pos := findProjection(s.Exprs, o.Expr)
		if pos < 0 {
			return fmt.Errorf("sqlengine: scatter aggregate ordered by an unprojected expression")
		}
		m.order = append(m.order, legKey{pos: pos, desc: o.Desc})
	}
	return nil
}

// findProjection locates an ORDER BY expression in the select list: by
// alias reference, then by syntactic equality.
func findProjection(exprs []SelectExpr, e Expr) int {
	c, _ := e.(*ColRef)
	bare := c != nil && c.Table == ""
	if bare {
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
		if pc, ok := se.Expr.(*ColRef); ok && bare && strings.EqualFold(pc.Name, c.Name) {
			return i
		}
	}
	return -1
}

// literalInt reads a literal integer expression (LIMIT/OFFSET).
func literalInt(e Expr) (int, bool) {
	l, ok := e.(*Literal)
	if !ok || l.V.Kind() != KindInt {
		return 0, false
	}
	return int(l.V.Int()), true
}

// bind builds the plan for legs that return header. Every expression is a
// position in a leg's row, which is slot 0 of a one-slot frame: a column of
// the result is that column of the row, or the aggregate that folds it; a
// sort key is the result column at its position, or a helper column behind
// them.
func (m *Merge) bind(header []string) error {
	p := &m.plan
	if p.aggregated && len(m.folds) != len(header) {
		return fmt.Errorf("sqlengine: aggregate merge expected %d columns, got %d", len(m.folds), len(header))
	}
	width := len(header) - m.drop
	p.proj, p.groupBy, p.aggs, p.order = nil, nil, nil, nil
	for i := 0; i < width; i++ {
		x := &bexpr{op: eCol, col: i}
		switch {
		case !p.aggregated:
		case m.folds[i] == aggNone:
			p.groupBy = append(p.groupBy, x)
		default:
			p.aggs = append(p.aggs, aggSpec{agg: m.folds[i], arg: x})
			x = &bexpr{op: eAgg, col: len(p.aggs) - 1}
		}
		p.proj = append(p.proj, x)
	}
	for _, k := range m.order {
		pos := k.pos
		if pos < 0 {
			for i, name := range header { // the last column of that name, as ever
				if strings.EqualFold(name, k.name) {
					pos = i
				}
			}
		}
		switch {
		case pos < 0:
			return fmt.Errorf("sqlengine: merge order column %q not in result", k.name)
		case pos < width:
			p.order = append(p.order, orderKey{x: p.proj[pos], desc: k.desc})
		default:
			p.order = append(p.order, orderKey{x: &bexpr{op: eCol, col: pos}, desc: k.desc})
		}
	}
	m.header = slices.Clone(header)
	p.cols = m.header[:width:width]
	m.src.rt = &p.rt
	p.bindRun(1, &m.src)
	return nil
}

// Run merges sets — one leg's result each, in ascending cell order — into
// out, whose rows share nothing with them, with the Replies they live in or
// with the Merge's scratch: they are carved from chunks the Merge keeps and
// never rewinds, the caller's to keep (the header is the plan's, as any
// result's is, and never written).
// The plan binds to the legs' header on the first Run and again whenever the
// header changes.
func (m *Merge) Run(sets []*ResultSet, out *ResultSet) error {
	*out = ResultSet{}
	if len(sets) == 0 {
		return nil
	}
	if m.header == nil || !slices.Equal(m.header, sets[0].Columns) {
		m.header = nil // stays unbound if the new header does not bind
		if err := m.bind(sets[0].Columns); err != nil {
			return err
		}
	}
	rt := &m.plan.rt
	rt.frame = rt.live
	m.src.sets = sets
	err := m.plan.run(rt, out, nil)
	// Like the row images of any other run, the legs are let go of.
	rt.end()
	m.src.sets = nil
	return err
}

// legIter is a Merge's source: the rows of every leg, legs in the order given
// and rows in the order their engine returned them. A row's arrival number is
// therefore (cell, row in cell), and the tail's order — sort keys, then
// arrival — is a stable sort of the legs' concatenation: rows that tie come
// out lower cell first, and within a cell in the cell's order, on every run.
type legIter struct {
	rt       *runState
	sets     []*ResultSet
	leg, row int
}

func (it *legIter) reset() { it.leg, it.row = 0, 0 }

func (it *legIter) next() bool {
	for ; it.leg < len(it.sets); it.leg, it.row = it.leg+1, 0 {
		if rows := it.sets[it.leg].Rows; it.row < len(rows) {
			it.rt.live[0] = rows[it.row]
			it.row++
			return true
		}
	}
	return false
}
