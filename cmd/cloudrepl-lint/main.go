// Command cloudrepl-lint is the repo's determinism and dataflow
// multichecker: it runs the internal/analysis suite — five package-local
// determinism analyzers (simtime, simrand, rawgo, maporder, closecheck) and
// four whole-program flow-aware analyzers (errdrop, lockorder, mvccalias,
// sharedstate) — over module packages and exits non-zero on any unannotated
// violation.
//
//	cloudrepl-lint ./...                   # whole repo (what `make lint` runs)
//	cloudrepl-lint ./internal/repl         # one package
//	cloudrepl-lint -list                   # describe the analyzers
//	cloudrepl-lint -only errdrop ./...     # run a subset
//	cloudrepl-lint -fix-stale ./...        # delete stale allow directives
//
// The container this repo builds in has no module proxy, so the tool
// re-implements the go/analysis driver on the standard library instead of
// plugging into `go vet -vettool`; diagnostics use the same
// file:line:col format, and the escape hatch is a
// `//cloudrepl:allow-<analyzer> <reason>` comment (see DESIGN.md,
// "Determinism contract").
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cloudrepl/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	fixStale := flag.Bool("fix-stale", false, "delete stale allow directives from source files")
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range splitComma(*only) {
			keep[name] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "cloudrepl-lint: -only %q matches no analyzer\n", *only)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudrepl-lint:", err)
		os.Exit(2)
	}
	res, err := analysis.LintDetail(moduleDir, analyzers, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudrepl-lint:", err)
		os.Exit(2)
	}

	diags := res.Diagnostics
	if *fixStale && len(res.Stale) > 0 {
		fixed, err := removeStaleDirectives(res.Stale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cloudrepl-lint:", err)
			os.Exit(2)
		}
		for _, f := range fixed {
			fmt.Printf("%s: removed stale directive\n", f)
		}
		// The stale-directive diagnostics are resolved by the edit; keep
		// everything else (violations, malformed directives).
		var kept []analysis.Diagnostic
		for _, d := range diags {
			if d.Analyzer == "directive" && strings.Contains(d.Message, "stale allow-") {
				continue
			}
			kept = append(kept, d)
		}
		diags = kept
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cloudrepl-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// removeStaleDirectives deletes each stale allow comment in place: a
// directive on its own line is removed line-and-all, a trailing directive is
// cut from the end of its statement line. Returns "file:line" strings for
// what was removed.
func removeStaleDirectives(stale []*analysis.Directive) ([]string, error) {
	byFile := map[string][]*analysis.Directive{}
	for _, d := range stale {
		byFile[d.Pos.Filename] = append(byFile[d.Pos.Filename], d)
	}
	files := make([]string, 0, len(byFile))
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)

	var fixed []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(string(data), "\n")
		dirs := byFile[file]
		// Apply bottom-up so earlier line numbers stay valid after deletions.
		sort.Slice(dirs, func(i, j int) bool { return dirs[i].Pos.Line > dirs[j].Pos.Line })
		for _, d := range dirs {
			i := d.Pos.Line - 1
			if i < 0 || i >= len(lines) {
				return nil, fmt.Errorf("%s:%d: stale directive out of range", file, d.Pos.Line)
			}
			line := lines[i]
			if strings.HasPrefix(strings.TrimSpace(line), "//cloudrepl:allow-") {
				lines = append(lines[:i], lines[i+1:]...)
			} else if col := strings.Index(line, "//cloudrepl:allow-"); col >= 0 {
				lines[i] = strings.TrimRight(line[:col], " \t")
			} else {
				return nil, fmt.Errorf("%s:%d: no directive found on line", file, d.Pos.Line)
			}
			fixed = append(fixed, fmt.Sprintf("%s:%d", file, d.Pos.Line))
		}
		if err := os.WriteFile(file, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			return nil, err
		}
	}
	sort.Strings(fixed)
	return fixed, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// findModuleRoot walks up from the working directory to the go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(dir + "/go.mod"); err == nil {
			return dir, nil
		}
		parent := dirAbove(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func dirAbove(dir string) string {
	for i := len(dir) - 1; i > 0; i-- {
		if dir[i] == '/' {
			return dir[:i]
		}
	}
	return dir
}
