package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies how control may flow from a caller to a callee.
type EdgeKind uint8

const (
	// EdgeCall is an ordinary synchronous call (including defer, and
	// including a function value passed to a callee that may invoke it).
	EdgeCall EdgeKind = iota
	// EdgeSpawnProc marks a function handed to the sim scheduler: the
	// callback of sim.Env.Go / Schedule / After. It runs serialized against
	// the virtual clock, but in a different logical process than the caller.
	EdgeSpawnProc
	// EdgeSpawnParallel marks a function that starts on a real goroutine —
	// a raw `go` statement or a worker/progress function handed to
	// experiment.RunShards. This is the genuinely parallel path.
	EdgeSpawnParallel
	// EdgeRef marks a function value that escapes (stored, returned or
	// passed) without a known invocation discipline; a sound analysis must
	// assume the holder may call it.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeSpawnProc:
		return "spawn-proc"
	case EdgeSpawnParallel:
		return "spawn-parallel"
	case EdgeRef:
		return "ref"
	}
	return "unknown"
}

// CGNode is one function in the interprocedural call graph: either a
// declared function/method (Fn set) or a function literal (Lit set, Encl
// pointing at the lexically enclosing node).
type CGNode struct {
	Fn   *types.Func  // nil for literals
	Lit  *ast.FuncLit // nil for declared functions
	Pkg  *Package
	Encl *CGNode // enclosing function, literals only
	Body *ast.BlockStmt
	Out  []CGEdge
	In   []CGEdge
}

// Name renders a diagnostic-friendly identifier ("(*sim.Env).Go",
// "experiment.RunShards", "repl.StartApplier$1" for literals).
func (n *CGNode) Name() string {
	if n.Fn != nil {
		return shortFuncName(n.Fn)
	}
	if n.Encl != nil {
		return n.Encl.Name() + "$lit"
	}
	return "$lit"
}

// CGEdge is one may-call relation.
type CGEdge struct {
	Caller  *CGNode
	Callee  *CGNode
	Kind    EdgeKind
	Dynamic bool // resolved by widening an interface method call
}

// CallGraph is the whole-program call graph over every package of a
// Program. Interface method calls are widened to every module type that
// implements the interface, so the graph over-approximates: an edge means
// "may call", absence means the analysis could not see a path (function
// values that escape into non-module code are the known blind spot).
type CallGraph struct {
	Nodes []*CGNode // deterministic: declaration order within load order

	funcs map[*types.Func]*CGNode
}

// NodeOf returns the node for a declared function or method (resolving
// generic instantiations to their origin), or nil if fn is not part of the
// program.
func (g *CallGraph) NodeOf(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.funcs[fn.Origin()]
}

// Reachable returns every node reachable from roots over edges whose kind
// passes the filter (nil filter follows every edge). Roots are included.
func (g *CallGraph) Reachable(roots []*CGNode, follow func(EdgeKind) bool) map[*CGNode]bool {
	seen := map[*CGNode]bool{}
	var stack []*CGNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if follow != nil && !follow(e.Kind) {
				continue
			}
			if !seen[e.Callee] {
				seen[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}
	return seen
}

// SpawnRoots returns the entry nodes of every context of the given kind:
// for EdgeSpawnParallel, each function that may start on a real goroutine;
// for EdgeSpawnProc, each sim-process/callback body.
func (g *CallGraph) SpawnRoots(kind EdgeKind) []*CGNode {
	var roots []*CGNode
	for _, n := range g.Nodes {
		for _, e := range n.In {
			if e.Kind == kind {
				roots = append(roots, n)
				break
			}
		}
	}
	return roots
}

type cgBuilder struct {
	prog  *Program
	g     *CallGraph
	named []*types.Named // every named type in the program, for widening
	// implCache memoizes interface method -> concrete implementing methods.
	implCache map[*types.Func][]*types.Func
}

func buildCallGraph(prog *Program) *CallGraph {
	b := &cgBuilder{
		prog:      prog,
		g:         &CallGraph{funcs: map[*types.Func]*CGNode{}},
		implCache: map[*types.Func][]*types.Func{},
	}
	b.collectNamed()
	// Pass 1: a node per declared function, in deterministic order.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CGNode{Fn: fn, Pkg: pkg, Body: fd.Body}
				b.g.funcs[fn] = n
				b.g.Nodes = append(b.g.Nodes, n)
			}
		}
	}
	// Pass 2: walk bodies, adding edges and literal nodes.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				b.walkBody(b.g.funcs[fn], pkg, fd.Body)
			}
		}
	}
	return b.g
}

func (b *cgBuilder) collectNamed() {
	for _, pkg := range b.prog.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					b.named = append(b.named, named)
				}
			}
		}
	}
}

// walkBody adds edges out of cur for every call in body, creating child
// nodes for function literals (whose own bodies are walked under the child,
// not attributed to cur).
func (b *cgBuilder) walkBody(cur *CGNode, pkg *Package, body ast.Node) {
	// litRole is assigned when a literal (or named function value) appears
	// in a recognized position: direct callee, spawn argument, defer, etc.
	litRole := map[*ast.FuncLit]EdgeKind{}
	spawnCall := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			kind, ok := litRole[n]
			if !ok {
				kind = EdgeRef
			}
			child := &CGNode{Lit: n, Pkg: pkg, Encl: cur, Body: n.Body}
			b.g.Nodes = append(b.g.Nodes, child)
			b.addEdge(cur, child, kind, false)
			b.walkBody(child, pkg, n.Body)
			return false // children attributed to child, not cur
		case *ast.GoStmt:
			spawnCall[n.Call] = true
			return true
		case *ast.CallExpr:
			b.visitCall(cur, pkg, n, litRole, spawnCall[n])
			return true
		}
		return true
	})
}

func (b *cgBuilder) visitCall(cur *CGNode, pkg *Package, call *ast.CallExpr, litRole map[*ast.FuncLit]EdgeKind, goStmt bool) {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation, f[T](...). If the index was a
	// real map/slice lookup instead, the unwrapped expression resolves to a
	// variable, not a function, and falls out below — same result.
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	kind := EdgeCall
	if goStmt {
		kind = EdgeSpawnParallel
	}
	// Direct call of a literal: func(){...}().
	if lit, ok := fun.(*ast.FuncLit); ok {
		litRole[lit] = kind
		return
	}
	callees, dynamic := b.resolveCallees(pkg, fun)
	for _, fn := range callees {
		if node := b.g.NodeOf(fn); node != nil {
			b.addEdge(cur, node, kind, dynamic)
		}
	}
	// Classify function-valued arguments: spawned by the sim scheduler,
	// fanned out by RunShards, or conservatively callable by the callee.
	argKind := EdgeCall
	if len(callees) == 1 {
		switch {
		case isSimSchedulerEntry(callees[0]):
			argKind = EdgeSpawnProc
		case isParallelFanout(callees[0]):
			argKind = EdgeSpawnParallel
		}
	} else if len(callees) == 0 {
		argKind = EdgeRef // unknown holder
	}
	for _, arg := range call.Args {
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			litRole[a] = argKind
		default:
			if fn := funcValueOf(pkg, a); fn != nil {
				if node := b.g.NodeOf(fn); node != nil {
					b.addEdge(cur, node, argKind, false)
				}
			}
		}
	}
}

// resolveCallees maps a call's Fun expression to the set of declared
// functions it may invoke. dynamic reports interface widening.
func (b *cgBuilder) resolveCallees(pkg *Package, fun ast.Expr) ([]*types.Func, bool) {
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[f].(*types.Func); ok {
			return []*types.Func{fn}, false
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, false
			}
			if types.IsInterface(sel.Recv()) {
				return b.implementers(fn), true
			}
			return []*types.Func{fn}, false
		}
		// Package-qualified function: pkg.F.
		if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return []*types.Func{fn}, false
		}
	}
	return nil, false
}

// implementers returns every concrete module method that may satisfy a call
// of interface method m, in deterministic order.
func (b *cgBuilder) implementers(m *types.Func) []*types.Func {
	m = m.Origin()
	if impls, ok := b.implCache[m]; ok {
		return impls
	}
	sig := m.Type().(*types.Signature)
	var iface *types.Interface
	if recv := sig.Recv(); recv != nil {
		iface, _ = recv.Type().Underlying().(*types.Interface)
	}
	var impls []*types.Func
	if iface != nil {
		for _, named := range b.named {
			if types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				impls = append(impls, fn.Origin())
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Pos() < impls[j].Pos() })
	b.implCache[m] = impls
	return impls
}

func (b *cgBuilder) addEdge(caller, callee *CGNode, kind EdgeKind, dynamic bool) {
	e := CGEdge{Caller: caller, Callee: callee, Kind: kind, Dynamic: dynamic}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// funcValueOf resolves an expression used as a function value (not called)
// to the declared function it denotes, or nil: a bare function name or a
// method value x.M.
func funcValueOf(pkg *Package, e ast.Expr) *types.Func {
	switch x := e.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isSimSchedulerEntry reports whether fn is a sim.Env method whose function
// argument becomes a scheduler-managed context: a process body (Go) or a
// callback (Schedule, After).
func isSimSchedulerEntry(fn *types.Func) bool {
	return isMethodOf(fn, "internal/sim", "Env") &&
		(fn.Name() == "Go" || fn.Name() == "Schedule" || fn.Name() == "After")
}

// isParallelFanout reports whether fn hands its function arguments to real
// goroutines: experiment.RunShards calls progress concurrently from every
// worker.
func isParallelFanout(fn *types.Func) bool {
	return fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/experiment") &&
		fn.Name() == "RunShards"
}

// isMethodOf reports whether fn is a method on *T or T where T is named
// typeName in a package whose import path ends with pkgSuffix.
func isMethodOf(fn *types.Func, pkgSuffix, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// shortFuncName renders "pkg.Func" or "(*pkg.Type).Method" with the last
// path element as the package qualifier.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			q := named.Obj().Name()
			if p := named.Obj().Pkg(); p != nil {
				q = lastPathElem(p.Path()) + "." + q
			}
			if star != "" {
				return "(*" + q + ")." + name
			}
			return q + "." + name
		}
	}
	if p := fn.Pkg(); p != nil {
		return lastPathElem(p.Path()) + "." + name
	}
	return name
}

func lastPathElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
