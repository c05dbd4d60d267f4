package sqlengine

// Every expression a statement evaluates is bound once — when its SELECT
// plan or write plan is built — by the resolver (resolve.go) to frame
// positions and operator codes. A value is a column (frame[slot][col]), a ?
// placeholder (args[i]), a constant, an aggregate's result or the server's
// clock (UTC_MICROS()); a predicate is an AND of comparisons, IN lists and
// LIKEs over values, or one value read as a truth. No name is looked at, no
// case folded and no operator string compared while rows flow, and nothing
// here can fail: what cannot be evaluated was refused when the plan was bound.
//
// What runs once per scanned row — a node's filters, sort keys, group keys —
// reads a value where it lies (bexpr.ref) and decides a comparison or LIKE
// between two values without building a Value (bexpr.holds).

// exprOp is an operator or bound-node code.
type exprOp uint8

const (
	eInvalid exprOp = iota
	eAnd
	eEq // the six comparisons stay together, in this order: cmpHolds tests the range
	eNe
	eLt
	eLe
	eGt
	eGe
	// Bound-node kinds with no operator spelling.
	eConst
	eParam
	eCol
	eAgg
	eNow // UTC_MICROS(): the executing server's own clock
	eIn
	eLike
)

// binaryOpOf maps a Binary node's operator spelling to its code.
func binaryOpOf(op string) exprOp {
	switch op {
	case "AND":
		return eAnd
	case "=":
		return eEq
	case "!=":
		return eNe
	case "<":
		return eLt
	case "<=":
		return eLe
	case ">":
		return eGt
	case ">=":
		return eGe
	}
	return eInvalid
}

// cmpHolds reports whether comparison operator op holds of c, a Compare result.
func cmpHolds(op exprOp, c int) bool {
	switch op {
	case eEq:
		return c == 0
	case eNe:
		return c != 0
	case eLt:
		return c < 0
	case eLe:
		return c <= 0
	case eGt:
		return c > 0
	}
	return c >= 0
}

// bexpr is a bound expression node: an operator code over resolved operands.
type bexpr struct {
	op   exprOp
	slot int       // eCol: frame slot
	col  int       // eCol: column position; eParam: argument index; eAgg: aggregate index
	val  Value     // eConst: the constant; eNow: the clock's last reading
	like *likeProg // eLike: the pattern as last compiled (like.go)
	kids []*bexpr
}

// ref returns where a value lies — a column in its row image, a ? in the
// argument vector, a constant in its node, an aggregate among the group's
// results — or, for UTC_MICROS(), reads the local clock (the paper's UDF for
// MySQL Bug #8523) into its node.
func (x *bexpr) ref(rt *runState) *Value {
	switch x.op {
	case eCol:
		if row := rt.frame[x.slot]; row != nil {
			return &row[x.col]
		}
		return &rt.null // a global aggregate's group over no rows
	case eParam:
		return &rt.args[x.col]
	case eAgg:
		return &rt.aggs[x.col]
	case eNow:
		x.val = NewTime(rt.e.NowMicros())
	}
	return &x.val
}

// into stores the value for the current frame in dst.
func (x *bexpr) into(rt *runState, dst *Value) { *dst = *x.ref(rt) }

// holds reports whether the predicate is true of the current frame — NULL is
// not. A comparison or LIKE is decided where its operands lie.
func (x *bexpr) holds(rt *runState) bool {
	switch x.op {
	case eAnd:
		return x.kids[0].holds(rt) && x.kids[1].holds(rt)
	case eIn:
		l := x.kids[0].ref(rt)
		if l.kind == KindNull {
			return false
		}
		for _, k := range x.kids[1:] {
			if r := k.ref(rt); r.kind != KindNull && compare(l, r) == 0 {
				return true
			}
		}
		return false
	case eEq, eNe, eLt, eLe, eGt, eGe, eLike:
		l, r := x.kids[0].ref(rt), x.kids[1].ref(rt)
		switch {
		case l.kind == KindNull || r.kind == KindNull:
			return false
		case x.op != eLike:
			return cmpHolds(x.op, compare(l, r))
		case l.kind == KindString && r.kind == KindString:
			return x.like.compiled(r.s).match(l.s)
		}
		return x.like.compiled(r.String()).match(l.String())
	}
	return x.ref(rt).Bool()
}

// aggKind is an aggregate function, as the resolver binds a call to it;
// aggNone marks a merge's group-key column.
type aggKind uint8

const (
	aggNone aggKind = iota
	aggCount
	aggSum
	aggMin
	aggMax
)

// aggregates is every aggregate function by upper-case name.
var aggregates = map[string]aggKind{"COUNT": aggCount, "SUM": aggSum, "MIN": aggMin, "MAX": aggMax}

// aggregated reports whether the SELECT groups or aggregates: GROUP BY, or an
// aggregate call in the select list.
func (st *SelectStmt) aggregated() bool {
	for _, se := range st.Exprs {
		if f, ok := se.Expr.(*FuncCall); ok && aggregates[f.Name] != aggNone {
			return true
		}
	}
	return len(st.GroupBy) > 0
}
