package analysis

// All returns the full linter suite in reporting order: the four
// package-local determinism analyzers, then the three whole-program
// flow-aware analyzers (call-graph- and fact-driven).
func All() []*Analyzer {
	return []*Analyzer{
		SimTime, SimRand, MapOrder, CloseCheck,
		ErrDrop, MVCCAlias, SharedState,
	}
}

// KnownNames maps analyzer name -> true for directive validation.
func KnownNames() map[string]bool {
	m := map[string]bool{}
	for _, a := range All() {
		m[a.Name] = true
	}
	return m
}

// LintResult is the full outcome of a lint run: the surviving diagnostics
// (violations, malformed directives, stale directives — anything that should
// fail the build) plus the stale directives themselves, separated out so the
// -fix-stale driver can delete them mechanically.
type LintResult struct {
	Diagnostics []Diagnostic
	Stale       []*Directive
}

// LintDetail loads the given patterns from moduleDir, runs every analyzer
// over the whole program (facts propagate in dependency order, Finish hooks
// see the merged result) with allow-directive suppression and stale-directive
// detection, and returns the surviving diagnostics sorted by position, with
// the stale directives broken out for -fix-stale. This is the whole
// cloudrepl-lint pipeline, behind one function the command and tests call.
func LintDetail(moduleDir string, analyzers []*Analyzer, patterns ...string) (*LintResult, error) {
	l, err := NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	prog := NewProgram(l)
	diags, err := RunProgram(prog, analyzers, pkgs)
	if err != nil {
		return nil, err
	}

	known := KnownNames()
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	out := &LintResult{}
	var dirs []*Directive
	for _, pkg := range pkgs {
		ds, bad := ParseDirectives(pkg, known)
		dirs = append(dirs, ds...)
		out.Diagnostics = append(out.Diagnostics, bad...)
	}
	// Suppression is program-wide: a Finish-phase diagnostic (say a shared
	// write) lands at a concrete position and is governed by the directive
	// covering that line like any per-package finding.
	out.Diagnostics = append(out.Diagnostics, Suppress(diags, dirs)...)
	// Stale-check only directives for analyzers in this run: under -only, a
	// directive for an excluded analyzer has nothing it could legitimately
	// suppress, so it must not be reported stale.
	var ran []*Directive
	for _, d := range dirs {
		if running[d.Analyzer] {
			ran = append(ran, d)
		}
	}
	for _, d := range ran {
		if !d.Used {
			out.Stale = append(out.Stale, d)
		}
	}
	out.Diagnostics = append(out.Diagnostics, StaleDirectives(ran)...)
	sortDiagnostics(out.Diagnostics)
	return out, nil
}
