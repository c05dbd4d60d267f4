// Package analysis is cloudrepl's static-analysis toolkit: a minimal,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// Analyzer/Pass model, a module-aware package loader, and the suite of
// determinism linters that enforce the simulator's contract (see the
// "Determinism contract" section of DESIGN.md).
//
// The container this repo builds in has no module proxy access, so the
// framework deliberately depends only on the standard library (go/ast,
// go/parser, go/types and the GOROOT source importer). The API mirrors
// x/tools closely enough that the analyzers could be ported to a real
// multichecker by swapping the import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. It mirrors the x/tools type of the
// same name: a unique short name, human documentation and a Run function
// applied once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in allow directives:
	// a diagnostic from analyzer "simtime" is suppressed by a
	// "//cloudrepl:allow-simtime <reason>" comment.
	Name string
	// Doc is the one-paragraph description shown by cloudrepl-lint -help.
	Doc string
	// Run applies the check to a single type-checked package. Packages are
	// visited in dependency order, so what a pass learned about a
	// dependency (errdrop's always-nil functions) is there for its
	// dependents.
	Run func(*Pass) error
	// Finish, when non-nil, runs once after Run has been applied to every
	// package of the Program — the hook for whole-program conclusions such
	// as sharedstate's reachability over the call graph.
	Finish func(*FinishPass) error
}

// Pass carries everything an Analyzer needs to inspect one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	// Path is the package import path ("cloudrepl/internal/repl"). For
	// analysistest fixtures it is the bare fixture directory name.
	Path string
	Info *types.Info

	alwaysNil map[*types.Func]bool // the Program's, which errdrop fills
	diags     *[]Diagnostic
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier to the object it denotes (Uses or Defs).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// Inspect walks every file of the pass in source order, calling f for each
// node; f returning false prunes the subtree (ast.Inspect semantics).
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// isPkgQualifier reports whether x is an identifier denoting an imported
// package (as opposed to a value whose methods share the package's objects,
// e.g. rng.Intn on a *rand.Rand versus the global rand.Intn).
func isPkgQualifier(info *types.Info, x ast.Expr) bool {
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.PkgName)
	return ok
}
