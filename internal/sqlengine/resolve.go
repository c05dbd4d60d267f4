package sqlengine

import (
	"fmt"
	"strings"
)

// The resolver is the plan-time step that turns the AST expressions a plan
// holds into bound expressions (bexpr): column names become (slot, column)
// frame positions, operator spellings become codes, SELECT * expands, and an
// ORDER BY item naming a SELECT alias becomes that projection. Unknown and
// ambiguous references therefore fail when the plan is built, whatever the
// data holds. SELECT plans and write plans (write.go) both bind through it.

// resolveCol finds the scope slot and column position c names among tables.
func resolveCol(tables []planTable, c *ColRef) (slot, pos int, err error) {
	if c.Table != "" {
		for i, t := range tables {
			if !strings.EqualFold(t.lower, c.Table) {
				continue
			}
			if pos, ok := t.tbl.ColPos(c.Name); ok {
				return i, pos, nil
			}
			return 0, 0, fmt.Errorf("sqlengine: unknown column %s.%s", c.Table, c.Name)
		}
		return 0, 0, fmt.Errorf("sqlengine: unknown table %s in expression", c.Table)
	}
	slot = -1
	for i, t := range tables {
		if p, ok := t.tbl.ColPos(c.Name); ok {
			if slot >= 0 {
				return 0, 0, fmt.Errorf("sqlengine: ambiguous column %s", c.Name)
			}
			slot, pos = i, p
		}
	}
	if slot < 0 {
		return 0, 0, fmt.Errorf("sqlengine: unknown column %s", c.Name)
	}
	return slot, pos, nil
}

// resolver binds expressions against a plan's scope tables. aggs is non-nil
// while binding a post-aggregation expression (projection, HAVING and ORDER
// BY of an aggregated SELECT), where an aggregate call becomes a read of its
// accumulator; elsewhere aggregates are rejected. The first error sticks.
type resolver struct {
	tables []planTable
	aggs   *[]aggSpec
	err    error
}

func (r *resolver) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *resolver) exprs(es ...Expr) []*bexpr {
	out := make([]*bexpr, len(es))
	for i, e := range es {
		out[i] = r.expr(e)
	}
	return out
}

func (r *resolver) expr(e Expr) *bexpr {
	switch e := e.(type) {
	case nil:
		return nil
	case *Literal:
		return &bexpr{op: eConst, val: e.V}
	case *Param:
		return &bexpr{op: eParam, col: e.Index}
	case *ColRef:
		slot, pos, err := resolveCol(r.tables, e)
		if err != nil {
			r.fail(err)
		}
		return &bexpr{op: eCol, slot: slot, col: pos}
	case *Unary:
		op := eNeg
		if e.Op == "NOT" {
			op = eNot
		}
		return &bexpr{op: op, kids: r.exprs(e.X)}
	case *Binary:
		op := binaryOpOf(e.Op)
		if op == eInvalid {
			r.fail(fmt.Errorf("sqlengine: unknown operator %q", e.Op))
		}
		return &bexpr{op: op, kids: r.exprs(e.L, e.R)}
	case *FuncCall:
		if isAggregate(e.Name) {
			return r.aggregate(e)
		}
		return &bexpr{op: eFunc, name: e.Name, kids: r.exprs(e.Args...)}
	case *InExpr:
		return &bexpr{op: eIn, not: e.Not, kids: append(r.exprs(e.X), r.exprs(e.List...)...)}
	case *BetweenExpr:
		return &bexpr{op: eBetween, not: e.Not, kids: r.exprs(e.X, e.Lo, e.Hi)}
	case *IsNullExpr:
		return &bexpr{op: eIsNull, not: e.Not, kids: r.exprs(e.X)}
	case *LikeExpr:
		return &bexpr{op: eLike, not: e.Not, like: new(likeProg), kids: r.exprs(e.X, e.Pattern)}
	}
	r.fail(fmt.Errorf("sqlengine: cannot evaluate %T", e))
	return &bexpr{op: eConst}
}

// aggregate registers one aggregate call of a post-aggregation expression and
// returns the read of its result. The argument binds in row context: it is
// evaluated per input row, and may not itself aggregate.
func (r *resolver) aggregate(f *FuncCall) *bexpr {
	if r.aggs == nil {
		r.fail(fmt.Errorf("sqlengine: aggregate %s not allowed here", f.Name))
		return &bexpr{op: eConst}
	}
	spec := aggSpec{fn: f.Name, distinct: f.Distinct}
	if f.Name == "COUNT" && f.Star {
		spec.star = true
	} else if len(f.Args) != 1 {
		r.fail(fmt.Errorf("sqlengine: %s expects one argument", f.Name))
	} else {
		aggs := r.aggs
		r.aggs = nil
		spec.arg = r.expr(f.Args[0])
		r.aggs = aggs
	}
	*r.aggs = append(*r.aggs, spec)
	return &bexpr{op: eAgg, col: len(*r.aggs) - 1}
}

// orderKey is one bound ORDER BY item.
type orderKey struct {
	x    *bexpr
	desc bool
}

// resolve binds everything the plan evaluates at run time — node filters and
// lookup keys, projection, grouping, HAVING, ORDER BY, LIMIT/OFFSET — and
// builds the plan's reusable run state. Engine lock held.
func (p *Plan) resolve(st *SelectStmt) error {
	r := &resolver{tables: p.tables}
	for _, n := range p.nodes {
		n.where = r.exprs(n.filters...)
		n.eq = r.expr(n.eqExpr)
		p.joins = p.joins || n.kind == opNLJoin || n.kind == opINLJoin || n.kind == opHashJoin
	}
	if p.aggregated = st.aggregated(); p.aggregated {
		// From here on expressions are evaluated per group.
		p.groupBy = r.exprs(st.GroupBy...)
		r.aggs = &p.aggs
		p.having = r.expr(st.Having)
	}

	// Projection: * expands to every column of every table in slot order;
	// aliases are remembered by output position for ORDER BY.
	aliasPos := map[string]int{}
	for _, se := range st.Exprs {
		if !se.Star {
			if se.Alias != "" {
				aliasPos[strings.ToLower(se.Alias)] = len(p.proj)
			}
			p.proj = append(p.proj, r.expr(se.Expr))
			p.cols = append(p.cols, selectColName(se))
			continue
		}
		if p.aggregated {
			return fmt.Errorf("sqlengine: SELECT * cannot be mixed with aggregates")
		}
		if len(p.tables) == 0 {
			return fmt.Errorf("sqlengine: SELECT * requires FROM")
		}
		for slot, t := range p.tables {
			for pos, c := range t.tbl.Columns {
				p.proj = append(p.proj, &bexpr{op: eCol, slot: slot, col: pos})
				p.cols = append(p.cols, c.Name)
			}
		}
	}
	for _, o := range st.OrderBy {
		key := orderKey{desc: o.Desc}
		if c, ok := o.Expr.(*ColRef); ok && c.Table == "" {
			if pos, hit := aliasPos[strings.ToLower(c.Name)]; hit {
				key.x = p.proj[pos]
			}
		}
		if key.x == nil {
			key.x = r.expr(o.Expr)
		}
		p.order = append(p.order, key)
	}
	p.distinct = st.Distinct

	// LIMIT/OFFSET may hold parameters but no columns.
	if !runtimeConst(st.Limit) {
		return fmt.Errorf("sqlengine: LIMIT must be constant")
	}
	if !runtimeConst(st.Offset) {
		return fmt.Errorf("sqlengine: OFFSET must be constant")
	}
	p.limit, p.offset = r.expr(st.Limit), r.expr(st.Offset)
	if r.err != nil {
		return r.err
	}

	src := rowIter(&onceIter{})
	if p.root != nil {
		src = buildIter(&p.rt, p.root)
	}
	p.bindRun(len(p.tables), src)
	return nil
}

// bindRun builds the bound plan's reusable run state: a frame of slots row
// images that src fills, and the scratch the tail sizes by the plan's shape.
func (p *Plan) bindRun(slots int, src rowIter) {
	p.rt.live = make([][]Value, slots)
	p.rt.by = p.order
	p.rt.tuple = make([]Value, len(p.groupBy))
	p.rt.src = src
}

func selectColName(se SelectExpr) string {
	if se.Alias != "" {
		return se.Alias
	}
	if c, ok := se.Expr.(*ColRef); ok {
		return c.Name
	}
	return se.Expr.String()
}
