package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// MVCCAlias holds the tree to one file boundary: internal/sqlengine/store.go
// is the only place that writes row storage. Rows, row images, version chains,
// index buckets and the heap all sit behind the row store's methods (DESIGN.md
// §12), which keep commit stamps, undo records and the chain GC's bookkeeping
// in step with every change; a field write from anywhere else — another file
// of the engine included — changes what snapshot readers see behind their
// backs.
//
// What counts as row storage is every struct type store.go declares. Outside
// that file a composite literal may build one, and methods may be called on
// it, but nothing may assign, increment, append to, copy into, clear, delete
// from or sort in place a field of one — nor an element of what a store.go
// function returns (Row.Values hands out the live image). There is no alias
// tracking: a write laundered through a local of slice type goes unseen, so
// the store's read accessors stay few.
var MVCCAlias = &Analyzer{
	Name: "mvccalias",
	Doc: "flag writes to sqlengine row storage (fields of the types " +
		"internal/sqlengine/store.go declares, results of its functions) from outside that file",
	Run: runMVCCAlias,
}

const (
	storePkgSuffix = "internal/sqlengine"
	storeFile      = "store.go"
)

func runMVCCAlias(pass *Pass) error {
	for _, file := range pass.Files {
		if inStore(pass, pass.Pkg, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(node ast.Node) bool {
			switch st := node.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkStorageWrite(pass, lhs, "write to", false)
				}
			case *ast.IncDecStmt:
				checkStorageWrite(pass, st.X, "write to", false)
			case *ast.CallExpr:
				if verb := mutatingCall(pass.Info, st); verb != "" && len(st.Args) > 0 {
					checkStorageWrite(pass, st.Args[0], verb, true)
				}
			}
			return true
		})
	}
	return nil
}

// inStore reports whether pos, a position in pkg, lies in the store file.
func inStore(pass *Pass, pkg *types.Package, pos token.Pos) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), storePkgSuffix) &&
		filepath.Base(pass.Fset.Position(pos).Filename) == storeFile
}

// checkStorageWrite reports target when it is row storage: a store-type field, or
// something reached from one, or the contents of a store function's result.
// inside says the write lands in what target refers to (an in-place call)
// rather than replacing target itself.
func checkStorageWrite(pass *Pass, target ast.Expr, verb string, inside bool) {
	for e := target; ; {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e, inside = x.X, true
		case *ast.SliceExpr:
			e, inside = x.X, true
		case *ast.StarExpr:
			e, inside = x.X, true
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal &&
				inStore(pass, sel.Obj().Pkg(), sel.Obj().Pos()) {
				pass.Reportf(target.Pos(), "%s row storage field %s outside %s: rows, images, chains and buckets change only through the row store's methods",
					verb, x.Sel.Name, storeFile)
				return
			}
			e = x.X
		case *ast.CallExpr:
			if fn := staticCallee(pass, x); inside && fn != nil && inStore(pass, fn.Pkg(), fn.Pos()) {
				pass.Reportf(target.Pos(), "%s the result of %s outside %s: it is the store's live storage; copy first",
					verb, fn.Name(), storeFile)
			}
			return
		default:
			return
		}
	}
}

// mutatingCall names what call does to its first argument in place — the
// builtins append (spare capacity is the backing array), copy, clear and
// delete, and the sort package's in-place sorts — or returns "".
func mutatingCall(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, builtin := info.Uses[fun].(*types.Builtin); builtin {
			switch fun.Name {
			case "append":
				return "append to"
			case "copy":
				return "copy into"
			case "clear", "delete":
				return fun.Name + " of"
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sort" {
				switch fun.Sel.Name {
				case "Slice", "SliceStable", "Sort", "Stable":
					return "in-place sort of"
				}
			}
		}
	}
	return ""
}
