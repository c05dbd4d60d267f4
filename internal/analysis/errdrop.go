package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ErrDrop is errcheck for this repo: it flags error results that are
// silently dropped — calls in statement position, deferred calls, and
// goroutine launches whose error vanishes with the stack, plus error
// variables that are assigned from a call and then never read again (the
// "checked the first error, shadowed the second" bug). Unlike a syntactic
// errcheck it is call-graph-aware: wrappers whose error is statically
// always nil — every return yields a literal nil, or the result of another
// such function, in each error position — are exempt wherever they are
// called from (the Program's always-nil set), as are
// the fmt printers and the infallible strings.Builder / bytes.Buffer
// writers. An explicit `_ = f()` stays visible and greppable and is
// allowed.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "flag silently dropped error results (statement position, defer, go) and " +
		"error variables assigned but never read; always-nil wrappers, from any package, are exempt",
	Run: runErrDrop,
}

func runErrDrop(pass *Pass) error {
	// Phase 1: classify this package's functions and add the always-nil
	// ones to the Program's set, so downstream packages see them. Same-package calls resolve through the
	// local memo (declaration order is not dependency order within a
	// package, so the memo recurses on demand).
	nw := &nilWrappers{pass: pass, decls: map[*types.Func]*ast.FuncDecl{}, memo: map[*types.Func]bool{}}
	var fns []*types.Func // declaration order
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					nw.decls[fn] = fd
					fns = append(fns, fn)
				}
			}
		}
	}
	for _, fn := range fns {
		if nw.alwaysNil(fn) {
			pass.alwaysNil[fn] = true
		}
	}

	// Phase 2: report drops.
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				nw.checkDropped(call, "")
			}
		case *ast.DeferStmt:
			nw.checkDropped(n.Call, "deferred ")
		case *ast.GoStmt:
			nw.checkDropped(n.Call, "goroutine ")
		case *ast.FuncDecl:
			if n.Body != nil {
				checkDeadErrorStores(pass, n.Body)
			}
		}
		return true
	})
	return nil
}

type nilWrappers struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func]bool
	stack map[*types.Func]bool // cycle guard
}

// checkDropped reports call when it returns an error nobody can see.
func (nw *nilWrappers) checkDropped(call *ast.CallExpr, how string) {
	pass := nw.pass
	if !callReturnsError(pass, call) || droppedErrorExempt(pass, call) {
		return
	}
	if fn := staticCallee(pass, call); fn != nil && nw.callAlwaysNil(fn) {
		return
	}
	pass.Reportf(call.Pos(), "%serror result of %s dropped: nobody observes the failure; handle it or discard explicitly with _ =", how, calleeName(call))
}

// callAlwaysNil reports whether fn's error results are statically always
// nil, resolving same-package functions locally and imported ones through
// the Program's always-nil set.
func (nw *nilWrappers) callAlwaysNil(fn *types.Func) bool {
	fn = fn.Origin()
	if _, local := nw.decls[fn]; local {
		return nw.alwaysNil(fn)
	}
	return nw.pass.alwaysNil[fn]
}

// alwaysNil computes (memoized) whether every return of local function fn
// yields nil in each error-typed result position.
func (nw *nilWrappers) alwaysNil(fn *types.Func) bool {
	if v, ok := nw.memo[fn]; ok {
		return v
	}
	if nw.stack == nil {
		nw.stack = map[*types.Func]bool{}
	}
	if nw.stack[fn] {
		return false // recursion: assume fallible
	}
	fd := nw.decls[fn]
	sig, _ := fn.Type().(*types.Signature)
	if fd == nil || sig == nil {
		return false
	}
	errPos := errorResultPositions(sig)
	if len(errPos) == 0 {
		nw.memo[fn] = false
		return false
	}
	nw.stack[fn] = true
	ok := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // literal's returns are its own
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		if len(ret.Results) == 1 && sig.Results().Len() > 1 {
			// return f() forwarding a tuple: nil-ness follows the callee.
			call, isCall := ret.Results[0].(*ast.CallExpr)
			if !isCall {
				ok = false
				return true
			}
			callee := staticCallee(nw.pass, call)
			if callee == nil || !nw.callAlwaysNil(callee) {
				ok = false
			}
			return true
		}
		if len(ret.Results) != sig.Results().Len() {
			ok = false // naked return: named error could hold anything
			return true
		}
		for _, i := range errPos {
			if !nw.exprAlwaysNil(ret.Results[i]) {
				ok = false
				return true
			}
		}
		return true
	})
	delete(nw.stack, fn)
	nw.memo[fn] = ok
	return ok
}

func (nw *nilWrappers) exprAlwaysNil(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name == "nil" && nw.pass.ObjectOf(x) == types.Universe.Lookup("nil")
	case *ast.CallExpr:
		if isErrorType(nw.pass.TypeOf(x)) {
			if fn := staticCallee(nw.pass, x); fn != nil {
				return nw.callAlwaysNil(fn)
			}
		}
		return false
	}
	return false
}

// errorResultPositions returns the indices of error-typed results.
func errorResultPositions(sig *types.Signature) []int {
	var out []int
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// staticCallee resolves a call to the single declared function or method it
// invokes, or nil for interface calls, function values and builtins.
func staticCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[f]; ok {
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic: cannot prove always-nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		if fn, ok := pass.Info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// checkDeadErrorStores flags `x, err := f()` / `err = f()` assignments whose
// error variable is never read afterwards — the error was captured only to
// satisfy the compiler and then dropped. A write inside a loop counts as
// read if the variable is read anywhere in that loop body (the read may
// precede the write textually but follow it dynamically).
func checkDeadErrorStores(pass *Pass, body *ast.BlockStmt) {
	type access struct {
		pos  token.Pos
		stmt *ast.AssignStmt // nil for reads
		rhs  ast.Expr        // the call the write drew from, writes only
		list ast.Node        // statement list directly containing the write
	}
	writes := map[types.Object][]access{}
	reads := map[types.Object][]token.Pos{}
	lhsIdent := map[*ast.Ident]bool{} // assignment targets are not reads
	var loops []ast.Node

	// Statement-list ownership: two writes in the same list are sequential,
	// so a read only rescues the earlier one if it happens before the later
	// write overwrites it. Writes in different lists (if/else arms) are
	// alternatives, not a sequence, and get no such narrowing.
	owner := map[ast.Stmt]ast.Node{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			for _, s := range n.List {
				owner[s] = n
			}
		case *ast.CaseClause:
			for _, s := range n.Body {
				owner[s] = n
			}
		case *ast.CommClause:
			for _, s := range n.Body {
				owner[s] = n
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					lhsIdent[id] = true
				}
			}
			// RHS must contain a call for the store to be "an error from a
			// call"; `err = nil` resets are not drops.
			fromCall := len(n.Rhs) == 1 && isCallExpr(n.Rhs[0])
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.ObjectOf(id)
				if obj == nil || !isErrorType(obj.Type()) || !isFunctionLocal(obj) {
					continue
				}
				if fromCall {
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else {
						rhs = n.Rhs[0]
					}
					writes[obj] = append(writes[obj], access{pos: id.Pos(), stmt: n, rhs: rhs, list: owner[ast.Stmt(n)]})
				} else {
					// Still a write (kills earlier stores) but not itself a
					// reportable drop.
					writes[obj] = append(writes[obj], access{pos: id.Pos(), list: owner[ast.Stmt(n)]})
				}
			}
		case *ast.Ident:
			if lhsIdent[n] {
				return true
			}
			obj := pass.Info.Uses[n]
			if obj == nil || !isErrorType(obj.Type()) || !isFunctionLocal(obj) {
				return true
			}
			reads[obj] = append(reads[obj], n.Pos())
		}
		return true
	})

	enclosingLoop := func(pos token.Pos) ast.Node {
		var innermost ast.Node
		for _, l := range loops {
			if l.Pos() <= pos && pos < l.End() {
				innermost = l // later entries are more deeply nested
			}
		}
		return innermost
	}
	// Report in deterministic order: objects sorted by first-write position.
	objs := make([]types.Object, 0, len(writes))
	for obj := range writes {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return writes[objs[i]][0].pos < writes[objs[j]][0].pos })
	for _, obj := range objs {
		ws := writes[obj]
		for _, w := range ws {
			if w.stmt == nil {
				continue // non-call write, not reportable
			}
			// The read window closes at the next write in the same statement
			// list: past it, the stored error is gone.
			killed := token.Pos(0)
			if w.list != nil {
				for _, w2 := range ws {
					if w2.pos > w.pos && w2.list == w.list && (killed == 0 || w2.pos < killed) {
						killed = w2.pos
					}
				}
			}
			readAfter := false
			loop := enclosingLoop(w.pos)
			for _, r := range reads[obj] {
				if (r > w.pos && (killed == 0 || r < killed)) ||
					(loop != nil && loop.Pos() <= r && r < loop.End()) {
					readAfter = true
					break
				}
			}
			if !readAfter {
				pass.Reportf(w.pos, "error assigned to %s is never read: the failure from %s is silently dropped", obj.Name(), describeExpr(w.rhs))
			}
		}
	}
}

func isCallExpr(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok
}

// isFunctionLocal reports whether obj is a local variable (not a package
// var, field or parameter of unknown provenance — params count as local).
func isFunctionLocal(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	// Package-level variables have the package scope as parent.
	return v.Parent() != nil && v.Parent() != v.Pkg().Scope()
}

func describeExpr(e ast.Expr) string {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return calleeName(call)
	}
	return "the call"
}

// droppedErrorExempt lists error-returning calls whose drop is idiomatic
// and harmless: the fmt printers (their error is the terminal's problem)
// and the infallible strings.Builder / bytes.Buffer writers.
func droppedErrorExempt(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(sel.Sel)
	if obj == nil {
		return false
	}
	if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch obj.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
				case "strings.Builder", "bytes.Buffer":
					return true
				}
			}
		}
	}
	return false
}

// callReturnsError reports whether any result of the call has type error.
func callReturnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	switch t := t.(type) {
	case nil:
		return false
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil
}
