package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	Path  string // import path, e.g. "cloudrepl/internal/repl"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single Go module from source.
// Standard-library imports are resolved through the GOROOT source importer,
// so no compiled export data or module cache is needed — the loader works in
// a hermetic container with nothing but a GOROOT.
//
// Test files (*_test.go) are not loaded: the determinism contract governs
// model code, while tests are drivers that may legitimately use wall-clock
// watchdogs (and the race detector covers them separately).
type Loader struct {
	ModuleDir  string // module root (directory containing go.mod)
	ModulePath string // module path from go.mod

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle detection
	// loadOrder records packages in load-completion order. A package's
	// module-internal imports finish loading before its own type check
	// returns, so this is a topological order (dependencies first) — the
	// order NewProgram runs the passes in.
	loadOrder []*Package
}

// NewLoader creates a loader rooted at moduleDir. The module path is read
// from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModuleDir:  abs,
		ModulePath: modPath,
		fset:       fset,
		std:        std,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Load resolves patterns ("./...", "./internal/repl", or full import paths)
// to module packages, loading each one plus its module-internal dependencies.
// The returned slice contains only the matched packages, sorted by path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := l.walkPackageDirs(l.ModuleDir)
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.ModuleDir, strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/..."))
			all, err := l.walkPackageDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				add(d)
			}
		case strings.HasPrefix(pat, l.ModulePath):
			add(filepath.Join(l.ModuleDir, strings.TrimPrefix(pat, l.ModulePath)))
		default:
			add(filepath.Join(l.ModuleDir, strings.TrimPrefix(pat, "./")))
		}
	}
	sort.Strings(dirs)

	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// walkPackageDirs returns every directory under root that contains at least
// one non-test .go file, skipping hidden directories and testdata trees.
func (l *Loader) walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "results") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

func (l *Loader) pathForDir(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (cached by import path).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.pathForDir(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor build constraints (//go:build lines and GOOS/GOARCH file
		// suffixes) the same way the go tool does, so a tag-excluded file —
		// a //go:build ignore generator, a windows-only stub — neither
		// parses into the package nor breaks its type check.
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("match %s: %w", filepath.Join(dir, name), err)
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: &moduleImporter{l: l, fromDir: dir}}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	l.loadOrder = append(l.loadOrder, pkg)
	return pkg, nil
}

// moduleImporter resolves module-local imports from source and defers
// everything else to the GOROOT source importer.
type moduleImporter struct {
	l       *Loader
	fromDir string
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.fromDir, 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l := m.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadDir(filepath.Join(l.ModuleDir, strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
