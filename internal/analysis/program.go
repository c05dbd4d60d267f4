package analysis

import (
	"fmt"
	"go/token"
	"go/types"
)

// Program is one whole-module analysis universe: every package the loader
// type-checked (targets plus their module-internal dependencies) in
// dependency order, errdrop's set of always-nil functions, and a
// lazily-built interprocedural call graph. All cross-package analysis —
// always-nil wrappers, call-graph reachability — happens within one Program
// so that types.Object identities line up across packages.
type Program struct {
	// Pkgs lists every loaded module package in topological order:
	// dependencies strictly before dependents. This is the order passes run
	// in, which is what makes a dependency's always-nil functions known
	// before any caller in a dependent package is checked.
	Pkgs   []*Package
	ByPath map[string]*Package
	Fset   *token.FileSet

	// alwaysNil holds every function errdrop found whose error results are
	// statically always nil, filled one package at a time.
	alwaysNil map[*types.Func]bool
	cg        *CallGraph
}

// NewProgram assembles a Program from everything l has loaded so far.
// Callers load their target patterns first; the loader's completion order
// (a dependency finishes loading before any dependent) provides the
// topological order directly.
func NewProgram(l *Loader) *Program {
	prog := &Program{
		Pkgs:      append([]*Package(nil), l.loadOrder...),
		ByPath:    map[string]*Package{},
		Fset:      l.fset,
		alwaysNil: map[*types.Func]bool{},
	}
	for _, pkg := range prog.Pkgs {
		prog.ByPath[pkg.Path] = pkg
	}
	return prog
}

// CallGraph returns the program's interprocedural call graph, building it on
// first use.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg == nil {
		prog.cg = buildCallGraph(prog)
	}
	return prog.cg
}

// FinishPass is handed to an Analyzer's Finish hook after every per-package
// pass has run: the whole Program plus a reporter.
type FinishPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a whole-program diagnostic at pos.
func (f *FinishPass) Reportf(pos token.Pos, format string, args ...any) {
	*f.diags = append(*f.diags, Diagnostic{
		Analyzer: f.Analyzer.Name,
		Pos:      f.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunProgram applies analyzers to the program's target packages in
// dependency order, then runs each analyzer's Finish hook once. targets nil
// means every package in the program. Diagnostics come back sorted by
// position; directive suppression is layered on top by the caller.
func RunProgram(prog *Program, analyzers []*Analyzer, targets []*Package) ([]Diagnostic, error) {
	if targets == nil {
		targets = prog.Pkgs
	}
	want := map[*Package]bool{}
	for _, pkg := range targets {
		want[pkg] = true
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs { // dependency order
			if !want[pkg] || a.Run == nil {
				continue // Finish-only analyzers have no per-package phase
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				Path:      pkg.Path,
				Info:      pkg.Info,
				alwaysNil: prog.alwaysNil,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
		if a.Finish != nil {
			fp := &FinishPass{Analyzer: a, Prog: prog, diags: &diags}
			if err := a.Finish(fp); err != nil {
				return nil, fmt.Errorf("%s (finish): %w", a.Name, err)
			}
		}
	}
	// Whole-program analyzers may report into dependency packages that are
	// not targets (e.g. a helper reachable from a worker); keep only
	// diagnostics landing in target files so narrow patterns stay narrow.
	targetFiles := map[string]bool{}
	for _, pkg := range targets {
		for _, f := range pkg.Files {
			targetFiles[prog.Fset.Position(f.Pos()).Filename] = true
		}
	}
	var kept []Diagnostic
	for _, d := range diags {
		if targetFiles[d.Pos.Filename] {
			kept = append(kept, d)
		}
	}
	sortDiagnostics(kept)
	return kept, nil
}
