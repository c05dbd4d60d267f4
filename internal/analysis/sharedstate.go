package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SharedState flags mutable state reachable from more than one concurrent
// context without sim-primitive mediation. Two concrete hazards:
//
//  1. Package-level variables touched from experiment.RunShards worker
//     context (or any raw goroutine): workers run real goroutines, so an
//     unsynchronized write is a data race, and a read races with any write
//     elsewhere in the program. The deterministic sim kernel gives no cover
//     here — RunShards is the one genuinely parallel path.
//
//  2. A local variable captured and written by two or more spawned sim
//     procs that never touch a sim primitive: with no Use/Wait/Get
//     anywhere in either proc, the interleaving of those writes is pure
//     scheduler accident — hidden coupling that a seed change silently
//     reorders. (Captured state shared by procs that do synchronize through
//     primitives is the normal coroutine style and is not flagged.)
//
// The analysis is whole-program: contexts come from the interprocedural
// call graph (EdgeSpawnParallel roots widened over ordinary calls and sim
// spawns), so a helper three calls below a worker closure is still worker
// context.
var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc: "flag package-level or captured mutable state reachable from " +
		"RunShards workers or multiple unsynchronized sim procs",
	Finish: finishSharedState,
}

func finishSharedState(fp *FinishPass) error {
	cg := fp.Prog.CallGraph()

	// Parallel context: everything reachable from a goroutine/worker entry,
	// following ordinary calls and sim spawns (a proc spawned inside a
	// worker's private sim still executes on the worker's goroutine).
	parallel := cg.Reachable(cg.SpawnRoots(EdgeSpawnParallel), func(k EdgeKind) bool {
		return k == EdgeCall || k == EdgeSpawnProc
	})

	// Pass 1: where is every package-level var written?
	firstWrite := map[*types.Var]token.Pos{}
	for _, n := range cg.Nodes {
		if n.Body == nil {
			continue
		}
		scanGlobalAccesses(n, func(v *types.Var, pos token.Pos, isWrite bool) {
			if isWrite {
				if old, ok := firstWrite[v]; !ok || pos < old {
					firstWrite[v] = pos
				}
			}
		})
	}

	// Pass 2: report accesses from parallel context. Writes are always
	// reported; reads only when the var is written somewhere in the program
	// (a read-only default is harmless). One report per (node, var).
	for _, n := range cg.Nodes {
		if n.Body == nil || !parallel[n] {
			continue
		}
		reported := map[*types.Var]bool{}
		node := n
		scanGlobalAccesses(n, func(v *types.Var, pos token.Pos, isWrite bool) {
			if reported[v] {
				return
			}
			if isWrite {
				reported[v] = true
				fp.Reportf(pos, "package-level var %s written from %s, which runs on a real goroutine (RunShards worker/go statement): this is a data race; move the state into the shard or pass results through the worker's return", v.Name(), node.Name())
				return
			}
			if wpos, ok := firstWrite[v]; ok {
				reported[v] = true
				fp.Reportf(pos, "package-level var %s read from %s, which runs on a real goroutine, and written at %s: reads race with that write; snapshot the value before fan-out", v.Name(), node.Name(), fp.Prog.Fset.Position(wpos))
			}
		})
	}

	// Captured-variable check: group each function's spawned literals by the
	// outer variables they write.
	for _, n := range cg.Nodes {
		if n.Body == nil {
			continue
		}
		type writer struct {
			lit      *CGNode
			kind     EdgeKind
			writePos token.Pos
		}
		writersOf := map[*types.Var][]writer{}
		for _, e := range n.Out {
			if e.Callee.Lit == nil || (e.Kind != EdgeSpawnProc && e.Kind != EdgeSpawnParallel) {
				continue
			}
			lit := e.Callee
			for v, pos := range capturedWrites(lit) {
				writersOf[v] = append(writersOf[v], writer{lit: lit, kind: e.Kind, writePos: pos})
			}
		}
		var vars []*types.Var
		for v := range writersOf {
			if len(writersOf[v]) >= 2 {
				vars = append(vars, v)
			}
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
		for _, v := range vars {
			ws := writersOf[v]
			sort.Slice(ws, func(i, j int) bool { return ws[i].writePos < ws[j].writePos })
			anyParallel := false
			for _, w := range ws {
				if w.kind == EdgeSpawnParallel {
					anyParallel = true
				}
			}
			if !anyParallel {
				// Sim procs are serialized; only flag when no writer ever
				// touches a sim primitive — then the write order is pure
				// scheduler accident with no synchronization discipline.
				synced := false
				for _, w := range ws {
					if usesSimPrimitive(w.lit) {
						synced = true
						break
					}
				}
				if synced {
					continue
				}
			}
			what := "spawned sim procs with no sim-primitive synchronization; route updates through a sim.Queue/Signal"
			if anyParallel {
				what = "concurrent goroutines (data race); keep per-worker state and merge after the join"
			}
			fp.Reportf(ws[1].writePos, "captured variable %s is written by %d %s", v.Name(), len(ws), what)
		}
	}
	return nil
}

// scanGlobalAccesses walks a node's own body (nested function literals are
// separate nodes and are skipped) reporting each package-level-var access.
// For a write like m[k] = v or s.f = x the base variable is the written one;
// base identifiers of write targets are not double-counted as reads.
func scanGlobalAccesses(n *CGNode, visit func(v *types.Var, pos token.Pos, isWrite bool)) {
	info := n.Pkg.Info
	writeIdents := map[*ast.Ident]bool{}
	asGlobal := func(e ast.Expr) (*types.Var, *ast.Ident) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				if v, ok := info.ObjectOf(x).(*types.Var); ok && isPackageLevel(v) {
					return v, x
				}
				return nil, nil
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				// pkg.Var resolves through the Sel; expr.field through the base.
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPackageLevel(v) {
					return v, x.Sel
				}
				e = x.X
			default:
				return nil, nil
			}
		}
	}
	inspectOwnBody(n, func(node ast.Node) {
		switch st := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if v, id := asGlobal(lhs); v != nil {
					writeIdents[id] = true
					visit(v, lhs.Pos(), true)
				}
			}
		case *ast.IncDecStmt:
			if v, id := asGlobal(st.X); v != nil {
				writeIdents[id] = true
				visit(v, st.X.Pos(), true)
			}
		case *ast.UnaryExpr:
			// &global escapes a writable pointer; treat as a write.
			if st.Op == token.AND {
				if v, id := asGlobal(st.X); v != nil {
					writeIdents[id] = true
					visit(v, st.X.Pos(), true)
				}
			}
		}
	})
	inspectOwnBody(n, func(node ast.Node) {
		if id, ok := node.(*ast.Ident); ok && !writeIdents[id] {
			if v, ok := info.Uses[id].(*types.Var); ok && isPackageLevel(v) {
				visit(v, id.Pos(), false)
			}
		}
	})
}

// inspectOwnBody visits every node of n's body except nested function
// literals (they have their own call-graph nodes).
func inspectOwnBody(n *CGNode, visit func(ast.Node)) {
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && (n.Lit == nil || lit != n.Lit) {
			return false
		}
		if node != nil {
			visit(node)
		}
		return true
	})
}

// capturedWrites returns the outer (function-local, non-package-level)
// variables that a spawned literal writes, with the first write position.
func capturedWrites(lit *CGNode) map[*types.Var]token.Pos {
	info := lit.Pkg.Info
	out := map[*types.Var]token.Pos{}
	record := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := info.Uses[id].(*types.Var) // Uses, not Defs: := inside the lit defines, not captures
		if !ok || v.IsField() || isPackageLevel(v) || !isFunctionLocal(v) {
			return
		}
		if v.Pos() >= lit.Lit.Pos() && v.Pos() < lit.Lit.End() {
			return // declared inside the literal (params, locals)
		}
		if old, seen := out[v]; !seen || id.Pos() < old {
			out[v] = id.Pos()
		}
	}
	inspectOwnBody(lit, func(node ast.Node) {
		switch st := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(st.X)
		}
	})
	return out
}

// usesSimPrimitive reports whether the literal's own body contains a call
// that parks its proc or wakes a parked one.
func usesSimPrimitive(lit *CGNode) bool {
	p := &Pass{Info: lit.Pkg.Info}
	found := false
	inspectOwnBody(lit, func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok || found {
			return
		}
		if fn := staticCallee(p, call); fn != nil && parksOrWakes(fn) {
			found = true
		}
	})
	return found
}

// parksOrWakes reports whether fn is a sim or pool primitive that parks the
// calling proc or wakes a parked one: the calls that order one proc's writes
// against another's.
func parksOrWakes(fn *types.Func) bool {
	switch fn.Name() {
	case "Use", "UseHigh":
		return isMethodOf(fn, "internal/sim", "Resource")
	case "Wait", "WaitTimeout", "Broadcast":
		return isMethodOf(fn, "internal/sim", "Signal")
	case "Get", "Put":
		return isMethodOf(fn, "internal/sim", "Queue")
	case "Borrow", "Return":
		return isMethodOf(fn, "internal/pool", "Pool")
	}
	return false
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
