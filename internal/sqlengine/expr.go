package sqlengine

import (
	"fmt"
	"strings"
)

// Every expression a statement evaluates is bound once — when its SELECT
// plan or write plan is built — by the resolver (resolve.go) to frame
// positions and operator codes, and evaluated by bexpr.eval over one set of
// scalar kernels (unaryOp, decides/logicOp, binaryOp, betweenOp, bexpr.like,
// builtin.apply): a bound column is frame[slot][col], a ? placeholder is
// args[i], a function call is its builtins entry, an aggregate its aggKind,
// and no name is looked at, no case folded and no operator string compared
// while rows flow.
//
// What runs once per scanned row — a node's filters, sort keys, group keys —
// reads a leaf (column, ?, constant, aggregate) where it lies (bexpr.ref) and
// decides a comparison or LIKE between two leaves without building a Value
// (bexpr.holds); anything else falls back to eval, which has the same answer
// by construction: ref is eval's own leaf case and compare is Compare.

// exprOp is an operator or bound-node code.
type exprOp uint8

const (
	eInvalid exprOp = iota
	eAnd
	eOr
	eEq // the six comparisons stay together, in this order: holds tests the range
	eNe
	eLt
	eLe
	eGt
	eGe
	eAdd
	eSub
	eMul
	eDiv
	eMod
	eNot
	eNeg
	// Bound-node kinds with no operator spelling.
	eConst
	eParam
	eCol
	eAgg
	eFunc
	eIn
	eBetween
	eIsNull
	eLike
)

// binaryOpOf maps a Binary node's operator spelling to its code.
func binaryOpOf(op string) exprOp {
	switch op {
	case "AND":
		return eAnd
	case "OR":
		return eOr
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
	case "+":
		return eAdd
	case "-":
		return eSub
	case "*":
		return eMul
	case "/":
		return eDiv
	case "%":
		return eMod
	}
	return eInvalid
}

// unaryOp is NOT x or -x.
func unaryOp(op exprOp, x Value) Value {
	switch {
	case x.IsNull():
		return Null
	case op == eNot:
		return NewBool(!x.Bool())
	case x.Kind() == KindFloat:
		return NewFloat(-x.Float())
	default:
		return NewInt(-x.Int())
	}
}

// decides reports whether v alone fixes the outcome of AND (a false operand)
// or OR (a true one) — the short-circuit test.
func decides(op exprOp, v Value) bool { return !v.IsNull() && v.Bool() == (op == eOr) }

// logicOp is three-valued AND/OR: NULL is an unknown that only matters when
// it decides the outcome.
func logicOp(op exprOp, l, r Value) Value {
	switch {
	case decides(op, l) || decides(op, r):
		return NewBool(op == eOr)
	case l.IsNull() || r.IsNull():
		return Null
	default:
		return NewBool(op == eAnd)
	}
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

// binaryOp evaluates a comparison or arithmetic operator; NULL operands yield
// NULL. String concatenation is spelled CONCAT, not +: arithmetic on strings
// coerces numerically like MySQL.
func binaryOp(op exprOp, l, r Value) Value {
	if l.IsNull() || r.IsNull() {
		return Null
	}
	switch op {
	case eEq, eNe, eLt, eLe, eGt, eGe:
		return NewBool(cmpHolds(op, compare(&l, &r)))
	case eDiv:
		if r.Float() == 0 {
			return Null // MySQL: division by zero yields NULL
		}
		return NewFloat(l.Float() / r.Float())
	case eMod:
		if r.Int() == 0 {
			return Null
		}
		return NewInt(l.Int() % r.Int())
	}
	if l.Kind() == KindFloat || r.Kind() == KindFloat || l.Kind() == KindString || r.Kind() == KindString {
		switch op {
		case eAdd:
			return NewFloat(l.Float() + r.Float())
		case eSub:
			return NewFloat(l.Float() - r.Float())
		default:
			return NewFloat(l.Float() * r.Float())
		}
	}
	switch op {
	case eAdd:
		return NewInt(l.Int() + r.Int())
	case eSub:
		return NewInt(l.Int() - r.Int())
	default:
		return NewInt(l.Int() * r.Int())
	}
}

// betweenOp is x [NOT] BETWEEN lo AND hi.
func betweenOp(x, lo, hi Value, not bool) Value {
	if x.IsNull() || lo.IsNull() || hi.IsNull() {
		return Null
	}
	return NewBool((compare(&x, &lo) >= 0 && compare(&x, &hi) <= 0) != not)
}

// bexpr is a bound expression node: an operator code over resolved operands.
type bexpr struct {
	op   exprOp
	not  bool      // negated eIn / eBetween / eIsNull / eLike
	slot int       // eCol: frame slot
	col  int       // eCol: column position; eParam: argument index; eAgg: aggregate index
	val  Value     // eConst
	fn   builtin   // eFunc: the builtin bound
	like *likeProg // eLike: the pattern as last compiled (like.go)
	kids []*bexpr
}

// ref returns where a leaf's value already lies — a column in its row image,
// a ? in the argument vector, a constant in its node, an aggregate among the
// group's results — and nil for a node that has to be computed.
func (x *bexpr) ref(rt *runState) *Value {
	switch x.op {
	case eCol:
		if row := rt.frame[x.slot]; row != nil {
			return &row[x.col]
		}
		return &rt.null // LEFT JOIN miss
	case eParam:
		return &rt.args[x.col]
	case eConst:
		return &x.val
	case eAgg:
		return &rt.aggs[x.col]
	}
	return nil
}

// into stores the expression's value for the current frame in dst.
func (x *bexpr) into(rt *runState, dst *Value) (err error) {
	if p := x.ref(rt); p != nil {
		*dst = *p
		return nil
	}
	*dst, err = x.eval(rt)
	return err
}

// holds reports whether the predicate is true of the current frame — NULL is
// not. A comparison or LIKE between leaves is decided where the operands lie.
func (x *bexpr) holds(rt *runState) (bool, error) {
	if x.op >= eEq && x.op <= eGe || x.op == eLike {
		if l, r := x.kids[0].ref(rt), x.kids[1].ref(rt); l != nil && r != nil {
			switch {
			case l.kind == KindNull || r.kind == KindNull:
				return false, nil
			case x.op != eLike:
				return cmpHolds(x.op, compare(l, r)), nil
			case l.kind == KindString && r.kind == KindString:
				return x.like.compiled(r.s).match(l.s) != x.not, nil
			}
		}
	}
	v, err := x.eval(rt)
	return err == nil && v.kind != KindNull && v.Bool(), err
}

// eval evaluates the bound expression against the run state's current frame.
func (x *bexpr) eval(rt *runState) (Value, error) {
	if p := x.ref(rt); p != nil {
		return *p, nil
	}
	var l, r Value
	switch x.op {
	case eFunc:
		var buf [4]Value
		args := buf[:0]
		for _, k := range x.kids {
			if err := k.into(rt, &l); err != nil {
				return Null, err
			}
			args = append(args, l)
		}
		return x.fn.apply(rt.e, args), nil
	case eIn:
		if err := x.kids[0].into(rt, &l); err != nil || l.IsNull() {
			return Null, err
		}
		for _, k := range x.kids[1:] {
			if err := k.into(rt, &r); err != nil {
				return Null, err
			}
			if !r.IsNull() && compare(&l, &r) == 0 {
				return NewBool(!x.not), nil
			}
		}
		return NewBool(x.not), nil
	}
	if err := x.kids[0].into(rt, &l); err != nil {
		return Null, err
	}
	switch x.op {
	case eNot, eNeg:
		return unaryOp(x.op, l), nil
	case eIsNull:
		return NewBool(l.IsNull() != x.not), nil
	case eAnd, eOr:
		if decides(x.op, l) {
			return NewBool(x.op == eOr), nil
		}
	}
	if err := x.kids[1].into(rt, &r); err != nil {
		return Null, err
	}
	switch x.op {
	case eAnd, eOr:
		return logicOp(x.op, l, r), nil
	case eLike:
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return NewBool(x.like.compiled(r.String()).match(l.String()) != x.not), nil
	case eBetween:
		var hi Value
		err := x.kids[2].into(rt, &hi)
		return betweenOp(l, r, hi, x.not), err
	}
	return binaryOp(x.op, l, r), nil
}

// fnKind is a scalar builtin, as the resolver binds a call to it.
type fnKind uint8

const (
	fnNow fnKind = iota
	fnConcat
	fnLower
	fnUpper
	fnLength
	fnAbs
	fnCoalesce
	fnIf
	fnSubstr
	fnMod
	fnFloor
	fnCeil
)

// builtin is one scalar builtin's entry: what it computes, how many
// arguments it takes (max -1: any number) and whether a NULL argument makes
// the result NULL before it computes anything.
type builtin struct {
	kind     fnKind
	min, max int8
	strict   bool
}

// builtins is every scalar builtin by upper-case name; a call binds to its
// entry when the plan is built (resolver.expr), so an unknown name or a
// wrong argument count fails there.
var builtins = map[string]builtin{
	// Microsecond-resolution local time (the paper's UDF for MySQL Bug
	// #8523). Evaluated against the executing server's own clock.
	"UTC_MICROS":        {kind: fnNow, max: -1},
	"NOW":               {kind: fnNow, max: -1},
	"CURRENT_TIMESTAMP": {kind: fnNow, max: -1},
	"UTC_TIMESTAMP":     {kind: fnNow, max: -1},
	"CONCAT":            {kind: fnConcat, max: -1, strict: true},
	"LOWER":             {kind: fnLower, min: 1, max: 1, strict: true},
	"UPPER":             {kind: fnUpper, min: 1, max: 1, strict: true},
	"LENGTH":            {kind: fnLength, min: 1, max: 1, strict: true},
	"ABS":               {kind: fnAbs, min: 1, max: 1, strict: true},
	"COALESCE":          {kind: fnCoalesce, max: -1},
	"IF":                {kind: fnIf, min: 3, max: 3},
	"SUBSTR":            {kind: fnSubstr, min: 2, max: 3},
	"SUBSTRING":         {kind: fnSubstr, min: 2, max: 3},
	"MOD":               {kind: fnMod, min: 2, max: 2, strict: true},
	"FLOOR":             {kind: fnFloor, min: 1, max: 1, strict: true},
	"CEIL":              {kind: fnCeil, min: 1, max: 1, strict: true},
	"CEILING":           {kind: fnCeil, min: 1, max: 1, strict: true},
}

// bindBuiltin finds name's entry and checks a call's argument count
// against it.
func bindBuiltin(name string, nargs int) (builtin, error) {
	fn, ok := builtins[name]
	switch {
	case !ok:
		return fn, fmt.Errorf("sqlengine: unknown function %s", name)
	case nargs < int(fn.min) || fn.max >= 0 && nargs > int(fn.max):
		if fn.min == fn.max {
			return fn, fmt.Errorf("sqlengine: %s expects %d arguments, got %d", name, fn.min, nargs)
		}
		return fn, fmt.Errorf("sqlengine: %s expects %d or %d arguments", name, fn.min, fn.max)
	}
	return fn, nil
}

// apply computes the builtin over args, whose count the binding checked.
func (fn builtin) apply(eng *Engine, args []Value) Value {
	if fn.strict {
		for i := range args {
			if args[i].IsNull() {
				return Null
			}
		}
	}
	switch fn.kind {
	case fnNow:
		return NewTime(eng.NowMicros())
	case fnConcat:
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.String())
		}
		return NewString(b.String())
	case fnLower:
		return NewString(strings.ToLower(args[0].String()))
	case fnUpper:
		return NewString(strings.ToUpper(args[0].String()))
	case fnLength:
		return NewInt(int64(len(args[0].String())))
	case fnAbs:
		if v := args[0]; v.Kind() == KindFloat {
			f := v.Float()
			if f < 0 {
				f = -f
			}
			return NewFloat(f)
		}
		n := args[0].Int()
		if n < 0 {
			n = -n
		}
		return NewInt(n)
	case fnCoalesce:
		for _, a := range args {
			if !a.IsNull() {
				return a
			}
		}
		return Null
	case fnIf:
		if !args[0].IsNull() && args[0].Bool() {
			return args[1]
		}
		return args[2]
	case fnSubstr:
		if args[0].IsNull() || args[1].IsNull() {
			return Null
		}
		s := args[0].String()
		start := int(args[1].Int()) // 1-based
		if start < 1 {
			start = 1
		}
		if start > len(s) {
			return NewString("")
		}
		out := s[start-1:]
		if len(args) == 3 {
			if args[2].IsNull() {
				return Null
			}
			n := int(args[2].Int())
			if n < 0 {
				n = 0
			}
			if n < len(out) {
				out = out[:n]
			}
		}
		return NewString(out)
	case fnMod:
		if args[1].Int() == 0 {
			return Null
		}
		return NewInt(args[0].Int() % args[1].Int())
	case fnFloor:
		f := args[0].Float()
		n := int64(f)
		if f < 0 && f != float64(n) {
			n--
		}
		return NewInt(n)
	}
	f := args[0].Float() // fnCeil
	n := int64(f)
	if f > 0 && f != float64(n) {
		n++
	}
	return NewInt(n)
}

// aggKind is an aggregate function, as the resolver binds a call to it;
// aggNone marks a merge's group-key column.
type aggKind uint8

const (
	aggNone aggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggregates is every aggregate function by upper-case name.
var aggregates = map[string]aggKind{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}

// containsAggregate reports whether the expression tree contains an
// aggregate call.
func containsAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && aggregates[f.Name] != aggNone {
			found = true
		}
	})
	return found
}

// aggregated reports whether the SELECT groups or aggregates: GROUP BY, or an
// aggregate call in the select list.
func (st *SelectStmt) aggregated() bool {
	for _, se := range st.Exprs {
		if !se.Star && containsAggregate(se.Expr) {
			return true
		}
	}
	return len(st.GroupBy) > 0
}
