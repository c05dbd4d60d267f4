// Package analysistest runs an analyzer over a want-comment fixture
// package, mirroring golang.org/x/tools/go/analysis/analysistest on the
// in-repo framework. A fixture file marks each expected diagnostic with a
// trailing comment:
//
//	time.Sleep(d) // want `wall-clock call time\.Sleep`
//
// The backquoted (or double-quoted) pattern is a regexp that must match a
// diagnostic reported on that line; unexpected diagnostics and unmatched
// wants both fail the test. Allow directives are honored exactly as in the
// cloudrepl-lint driver, so fixtures also prove the escape hatch works.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"cloudrepl/internal/analysis"
)

// fixtures is the one program every Run of a test binary shares: the whole
// fixture tree — every package under the parent of the first dir Run is given —
// loaded and type-checked once, with the standard library and the module
// packages the fixtures import. Loading it per fixture was most of the
// package's test time, the same dependencies checked again for each.
var fixtures struct {
	once sync.Once
	root string // the fixture tree, absolute
	l    *analysis.Loader
	prog *analysis.Program
	err  error
}

func loadFixtures(root string) {
	fixtures.root = root
	moduleDir := root
	for {
		if _, err := os.Stat(filepath.Join(moduleDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(moduleDir)
		if parent == moduleDir {
			fixtures.err = fmt.Errorf("no go.mod above %s", root)
			return
		}
		moduleDir = parent
	}
	rel, err := filepath.Rel(moduleDir, root)
	if err == nil {
		fixtures.l, err = analysis.NewLoader(moduleDir)
	}
	if err == nil {
		_, err = fixtures.l.Load(filepath.ToSlash(rel) + "/...")
	}
	if err != nil {
		fixtures.err = err
		return
	}
	fixtures.prog = analysis.NewProgram(fixtures.l)
}

// Run takes the fixture rooted at dir (conventionally "testdata/src/<name>",
// relative to the test's working directory) — the root package plus any
// subdirectory packages, so fixtures can exercise cross-package fact
// propagation — out of the shared fixture program, applies the analyzer to it
// (per-package passes in dependency order, then the Finish hook, which sees
// the whole program) with directive suppression, and checks the diagnostics
// that land in the fixture against its want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	absDir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("abs %s: %v", dir, err)
	}
	fixtures.once.Do(func() { loadFixtures(filepath.Dir(absDir)) })
	if fixtures.err != nil {
		t.Fatalf("load fixtures: %v", fixtures.err)
	}
	if filepath.Dir(absDir) != fixtures.root {
		t.Fatalf("%s is outside the fixture tree %s this binary loaded", dir, fixtures.root)
	}
	rel, err := filepath.Rel(fixtures.l.ModuleDir, absDir)
	if err != nil {
		t.Fatalf("rel: %v", err)
	}
	pkgs, err := fixtures.l.Load(filepath.ToSlash(rel) + "/...") // already loaded: a lookup
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("load %s: no packages", dir)
	}

	diags, err := analysis.RunProgram(fixtures.prog, []*analysis.Analyzer{a}, pkgs)
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}
	var dirs []*analysis.Directive
	for _, pkg := range pkgs {
		ds, bad := analysis.ParseDirectives(pkg, analysis.KnownNames())
		dirs = append(dirs, ds...)
		for _, d := range bad {
			t.Errorf("fixture %s: malformed directive: %s", dir, d)
		}
	}
	diags = analysis.Suppress(diags, dirs)

	var wants []want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile("// want (`[^`]*`|\"[^\"]*\")")

func collectWants(t *testing.T, pkg *analysis.Package) []want {
	t.Helper()
	var wants []want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pat := strings.Trim(m[1], "`\"")
					re, err := regexp.Compile(pat)
					if err != nil {
						pos := pkg.Fset.Position(c.Pos())
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// FixturePath builds the conventional fixture path for name.
func FixturePath(name string) string {
	return fmt.Sprintf("testdata/src/%s", name)
}
