package analysis

import (
	"go/ast"
)

// wallClockFuncs are the package time functions that read or wait on the
// wall clock. Any use inside sim-driven code makes a run depend on host
// scheduling instead of the virtual timeline, which silently breaks
// seed-reproducibility of every figure.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// SimTime forbids wall-clock access (time.Now, time.Sleep, timers and
// tickers) in simulation-driven code. Virtual time comes from sim.Env:
// use Env.Now / Proc.Sleep / Env.Schedule instead. The legitimate wall-clock
// users — the bench CLI's total-wall-time line and the benches that measure
// the host — carry //cloudrepl:allow-simtime annotations.
var SimTime = &Analyzer{
	Name: "simtime",
	Doc: "forbid wall-clock access (time.Now/Sleep/After/Tick/NewTimer/NewTicker/Since/Until) " +
		"in sim-driven code; virtual time must come from sim.Env",
	Run: runSimTime,
}

func runSimTime(pass *Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !wallClockFuncs[sel.Sel.Name] || !isPkgQualifier(pass.Info, sel.X) {
			return true
		}
		obj := pass.ObjectOf(sel.Sel)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
			return true
		}
		pass.Reportf(sel.Pos(), "wall-clock call time.%s in sim-driven code: use the virtual clock (sim.Env.Now, Proc.Sleep, Env.Schedule) or annotate //cloudrepl:allow-simtime <reason>", sel.Sel.Name)
		return true
	})
	return nil
}
