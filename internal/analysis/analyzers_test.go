package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloudrepl/internal/analysis"
	"cloudrepl/internal/analysis/analysistest"
)

func TestSimTime(t *testing.T) {
	analysistest.Run(t, analysistest.FixturePath("simtime"), analysis.SimTime)
}

func TestSimRand(t *testing.T) {
	analysistest.Run(t, analysistest.FixturePath("simrand"), analysis.SimRand)
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, analysistest.FixturePath("maporder"), analysis.MapOrder)
}

func TestCloseCheck(t *testing.T) {
	analysistest.Run(t, analysistest.FixturePath("closecheck"), analysis.CloseCheck)
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, analysistest.FixturePath("errdrop"), analysis.ErrDrop)
}

func TestMVCCAlias(t *testing.T) {
	analysistest.Run(t, analysistest.FixturePath("mvccalias"), analysis.MVCCAlias)
}

func TestSharedState(t *testing.T) {
	analysistest.Run(t, analysistest.FixturePath("sharedstate"), analysis.SharedState)
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

// loaded is what the tests that drive the framework by hand share: the
// directives and callgraph fixtures with their module dependencies,
// type-checked once into one program, and the call graph over it.
var loaded struct {
	once       sync.Once
	prog       *analysis.Program
	directives *analysis.Package
	callGraph  *analysis.CallGraph
	err        error
}

func loadOnce(t *testing.T) {
	t.Helper()
	root := moduleRoot(t)
	loaded.once.Do(func() {
		l, err := analysis.NewLoader(root)
		if err != nil {
			loaded.err = err
			return
		}
		pkgs, err := l.Load("internal/analysis/testdata/src/directives", "internal/analysis/testdata/src/callgraph")
		if err != nil || len(pkgs) != 2 {
			loaded.err = fmt.Errorf("loaded %d packages, want 2: %v", len(pkgs), err)
			return
		}
		loaded.prog = analysis.NewProgram(l)
		loaded.callGraph = loaded.prog.CallGraph()
		loaded.directives = pkgs[1] // sorted by path: callgraph, directives
	})
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
}

// TestDirectives checks the full directive life cycle on a fixture holding
// one used, one stale, one unknown-analyzer and one reason-less directive.
func TestDirectives(t *testing.T) {
	loadOnce(t)
	pkg := loaded.directives

	diags, err := analysis.RunProgram(loaded.prog, analysis.All(), []*analysis.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	dirs, bad := analysis.ParseDirectives(pkg, analysis.KnownNames())

	if len(bad) != 2 {
		t.Fatalf("malformed directives = %v, want 2 (unknown analyzer + missing reason)", bad)
	}
	var sawUnknown, sawNoReason bool
	for _, d := range bad {
		if strings.Contains(d.Message, "unknown allow directive") {
			sawUnknown = true
		}
		if strings.Contains(d.Message, "needs a justification") {
			sawNoReason = true
		}
	}
	if !sawUnknown || !sawNoReason {
		t.Errorf("malformed diagnostics missing a case: %v", bad)
	}

	// Only the well-formed directives parse: allow-simtime on covered and
	// allow-maporder on stale.
	if len(dirs) != 2 {
		t.Fatalf("parsed directives = %d, want 2", len(dirs))
	}

	kept := analysis.Suppress(diags, dirs)
	// Both wall-clock calls under the doc-comment directive are suppressed;
	// the one under the reason-less directive survives.
	if len(kept) != 1 || kept[0].Analyzer != "simtime" {
		t.Fatalf("kept = %v, want exactly the simtime finding under the reason-less directive", kept)
	}

	stale := analysis.StaleDirectives(dirs)
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "stale allow-maporder") {
		t.Fatalf("stale = %v, want exactly the unused allow-maporder directive", stale)
	}
}

// TestRepoIsLintClean runs the whole cloudrepl-lint pipeline over the
// module, pinning the "zero unannotated violations" invariant that `make
// lint` enforces in CI.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := moduleRoot(t)
	res, err := analysis.LintDetail(root, analysis.All(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("lint finding: %s", d)
	}
}
