package analysis

import (
	"go/ast"
	"go/types"
)

// mustConsumeMethods name the simulator-resource accessors whose results
// must not be dropped: a Borrow whose connection is discarded leaks a pool
// slot until eviction, a Get/TryGet/Peek whose value is discarded silently
// loses a replication message, a StartSpan/StartLinked whose span handle
// is dropped can never be ended — the span stays on the process's open-span
// stack forever, mis-parenting every later span on that process and counting
// as an orphan in the trace export — and a Prepare whose statement handle is
// dropped paid the parse and normalization cost for nothing: the handle is
// the only way to run or plan the statement.
var mustConsumeMethods = map[string]bool{
	"Borrow":      true,
	"Get":         true,
	"TryGet":      true,
	"Peek":        true,
	"StartSpan":   true,
	"StartLinked": true,
	"Prepare":     true,
}

// CloseCheck flags resource accessors (Borrow/Get/TryGet/Peek), span
// starters (StartSpan/StartLinked) and statement preparation (Prepare) whose
// results are silently dropped in statement position: the returned handle is
// the only way to release the capacity, end the span or execute the
// statement. An explicit `_ = f()` discard is allowed — it is visible and
// greppable. Dropped plain error results are errdrop's job
// (call-graph-aware, so always-nil wrappers are exempt there).
var CloseCheck = &Analyzer{
	Name: "closecheck",
	Doc: "flag discarded sim-resource handles (Borrow/Get/TryGet/Peek, " +
		"StartSpan/StartLinked, Prepare) that would silently leak capacity, " +
		"wedge the tracer, or waste a statement parse",
	Run: runCloseCheck,
}

func runCloseCheck(pass *Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := calleeMethodName(call); ok && mustConsumeMethods[name] && callHasResults(pass, call) {
			pass.Reportf(call.Pos(), "result of %s dropped: the returned resource/message is lost, leaking capacity; consume it or discard explicitly with _ =", calleeName(call))
		}
		return true
	})
	return nil
}

func callHasResults(pass *Pass, call *ast.CallExpr) bool {
	switch t := pass.TypeOf(call).(type) {
	case nil:
		return false
	case *types.Tuple:
		return t.Len() > 0
	default:
		return true
	}
}

func calleeMethodName(call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name, true
	}
	return "", false
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	case *ast.IndexExpr:
		return calleeName(&ast.CallExpr{Fun: f.X})
	}
	return "call"
}
