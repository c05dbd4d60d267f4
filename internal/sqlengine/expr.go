package sqlengine

import (
	"fmt"
	"strings"
)

// Every expression a statement evaluates is bound once — when its SELECT
// plan or write plan is built — by the resolver (resolve.go) to frame
// positions and operator codes, and evaluated by bexpr.eval over one set of
// scalar kernels (unaryOp, decides/logicOp, binaryOp, betweenOp, likeOp,
// callBuiltin): a bound column is frame[slot][col], a ? placeholder is
// args[i], and no name is looked at, no case folded and no operator string
// compared while rows flow.

// exprOp is an operator or bound-node code.
type exprOp uint8

const (
	eInvalid exprOp = iota
	eAnd
	eOr
	eEq
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

// binaryOp evaluates a comparison or arithmetic operator; NULL operands yield
// NULL. String concatenation is spelled CONCAT, not +: arithmetic on strings
// coerces numerically like MySQL.
func binaryOp(op exprOp, l, r Value) Value {
	if l.IsNull() || r.IsNull() {
		return Null
	}
	switch op {
	case eEq:
		return NewBool(Compare(l, r) == 0)
	case eNe:
		return NewBool(Compare(l, r) != 0)
	case eLt:
		return NewBool(Compare(l, r) < 0)
	case eLe:
		return NewBool(Compare(l, r) <= 0)
	case eGt:
		return NewBool(Compare(l, r) > 0)
	case eGe:
		return NewBool(Compare(l, r) >= 0)
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
	return NewBool((Compare(x, lo) >= 0 && Compare(x, hi) <= 0) != not)
}

// likeOp is x [NOT] LIKE pattern.
func likeOp(x, pat Value, not bool) Value {
	if x.IsNull() || pat.IsNull() {
		return Null
	}
	return NewBool(likeMatch(x.String(), pat.String()) != not)
}

// bexpr is a bound expression node: an operator code over resolved operands.
type bexpr struct {
	op   exprOp
	not  bool   // negated eIn / eBetween / eIsNull / eLike
	slot int    // eCol: frame slot
	col  int    // eCol: column position; eParam: argument index; eAgg: aggregate index
	val  Value  // eConst
	name string // eFunc: builtin name
	kids []*bexpr
}

// eval evaluates the bound expression against the run state's current frame.
func (x *bexpr) eval(rt *runState) (Value, error) {
	switch x.op {
	case eConst:
		return x.val, nil
	case eParam:
		return rt.args[x.col], nil
	case eCol:
		if row := rt.frame[x.slot]; row != nil {
			return row[x.col], nil
		}
		return Null, nil // LEFT JOIN miss
	case eAgg:
		return rt.aggs[x.col], nil
	case eFunc:
		var buf [4]Value
		args := buf[:0]
		for _, k := range x.kids {
			v, err := k.eval(rt)
			if err != nil {
				return Null, err
			}
			args = append(args, v)
		}
		return callBuiltin(rt.e, x.name, args)
	case eIn:
		v, err := x.kids[0].eval(rt)
		if err != nil || v.IsNull() {
			return Null, err
		}
		for _, k := range x.kids[1:] {
			item, err := k.eval(rt)
			if err != nil {
				return Null, err
			}
			if !item.IsNull() && Compare(v, item) == 0 {
				return NewBool(!x.not), nil
			}
		}
		return NewBool(x.not), nil
	}
	l, err := x.kids[0].eval(rt)
	if err != nil {
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
	r, err := x.kids[1].eval(rt)
	if err != nil {
		return Null, err
	}
	switch x.op {
	case eAnd, eOr:
		return logicOp(x.op, l, r), nil
	case eLike:
		return likeOp(l, r, x.not), nil
	case eBetween:
		hi, err := x.kids[2].eval(rt)
		return betweenOp(l, r, hi, x.not), err
	}
	return binaryOp(x.op, l, r), nil
}

// callBuiltin dispatches scalar builtins.
func callBuiltin(eng *Engine, name string, args []Value) (Value, error) {
	argn := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sqlengine: %s expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "UTC_MICROS", "NOW", "CURRENT_TIMESTAMP", "UTC_TIMESTAMP":
		// Microsecond-resolution local time (the paper's UDF for MySQL Bug
		// #8523). Evaluated against the executing server's own clock.
		return NewTime(eng.NowMicros()), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return Null, nil
			}
			b.WriteString(a.String())
		}
		return NewString(b.String()), nil
	case "LOWER":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToLower(args[0].String())), nil
	case "UPPER":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToUpper(args[0].String())), nil
	case "LENGTH":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewInt(int64(len(args[0].String()))), nil
	case "ABS":
		if err := argn(1); err != nil {
			return Null, err
		}
		v := args[0]
		switch v.Kind() {
		case KindNull:
			return Null, nil
		case KindFloat:
			f := v.Float()
			if f < 0 {
				f = -f
			}
			return NewFloat(f), nil
		default:
			n := v.Int()
			if n < 0 {
				n = -n
			}
			return NewInt(n), nil
		}
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	case "IF":
		if err := argn(3); err != nil {
			return Null, err
		}
		if !args[0].IsNull() && args[0].Bool() {
			return args[1], nil
		}
		return args[2], nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Null, fmt.Errorf("sqlengine: %s expects 2 or 3 arguments", name)
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		s := args[0].String()
		start := int(args[1].Int()) // 1-based
		if start < 1 {
			start = 1
		}
		if start > len(s) {
			return NewString(""), nil
		}
		out := s[start-1:]
		if len(args) == 3 {
			if args[2].IsNull() {
				return Null, nil
			}
			n := int(args[2].Int())
			if n < 0 {
				n = 0
			}
			if n < len(out) {
				out = out[:n]
			}
		}
		return NewString(out), nil
	case "MOD":
		if err := argn(2); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() || args[1].Int() == 0 {
			return Null, nil
		}
		return NewInt(args[0].Int() % args[1].Int()), nil
	case "FLOOR":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f := args[0].Float()
		n := int64(f)
		if f < 0 && f != float64(n) {
			n--
		}
		return NewInt(n), nil
	case "CEIL", "CEILING":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f := args[0].Float()
		n := int64(f)
		if f > 0 && f != float64(n) {
			n++
		}
		return NewInt(n), nil
	default:
		return Null, fmt.Errorf("sqlengine: unknown function %s", name)
	}
}

// isAggregate reports whether name is an aggregate function.
func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	default:
		return false
	}
}

// containsAggregate reports whether the expression tree contains an
// aggregate call.
func containsAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && isAggregate(f.Name) {
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

// likeMatch implements SQL LIKE with % (any run) and _ (one byte),
// case-insensitively like MySQL's default collation.
func likeMatch(s, pattern string) bool {
	// ASCII inputs fold per byte during the match; allocating two lowered
	// copies here ran once per scanned row on LIKE scans. Non-ASCII falls
	// back to whole-string lowering so multi-byte case mapping (which can
	// change byte lengths) behaves exactly as before; the redundant ASCII
	// fold after it is a no-op on already-lowered bytes.
	if !isASCII(s) || !isASCII(pattern) {
		s = strings.ToLower(s)
		pattern = strings.ToLower(pattern)
	}
	// Greedy two-pointer wildcard match over bytes.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || lowerASCII(pattern[pi]) == lowerASCII(s[si])):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 32
	}
	return c
}
