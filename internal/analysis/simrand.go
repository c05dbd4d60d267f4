package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// globalRandFuncs are the math/rand package-level functions backed by the
// process-global source. Even when Seeded they are shared across every
// concurrently running experiment worker, so call interleaving — not the
// seed — decides the stream each run sees.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 additions, should the import ever flip.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// simRandEnvPkg is the one package allowed to construct rand sources: the
// simulator kernel, where NewEnv seeds the env-threaded *rand.Rand that all
// model code must draw from.
const simRandEnvPkg = "cloudrepl/internal/sim"

// observerPkgs are the packages that observe a run — metering and tracing.
// Observing a run must not change it, so they draw nothing from its random
// stream: their randomness is a private generator seeded from the run.
var observerPkgs = []string{"/internal/metrics", "/internal/obs"}

// SimRand forbids the global math/rand source and stray rand.New/NewSource
// construction outside the sim kernel. All randomness must be threaded from
// sim.NewEnv(seed) via Env.Rand()/Proc.Rand() so that one seed determines
// one run. In the observer packages no math/rand object may be referenced at
// all, and Env.Rand/Proc.Rand may not be called.
var SimRand = &Analyzer{
	Name: "simrand",
	Doc: "forbid global math/rand functions and rand.New/NewSource outside sim.NewEnv; " +
		"randomness must be the env-threaded *rand.Rand, which metering and tracing never touch",
	Run: runSimRand,
}

func runSimRand(pass *Pass) error {
	for _, suffix := range observerPkgs {
		if strings.HasSuffix(pass.Path, suffix) {
			checkObserver(pass)
			return nil
		}
	}
	inSimKernel := pass.Path == simRandEnvPkg
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !isPkgQualifier(pass.Info, sel.X) {
			return true
		}
		obj := pass.ObjectOf(sel.Sel)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		path := obj.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return true
		}
		name := obj.Name()
		switch {
		case globalRandFuncs[name]:
			pass.Reportf(sel.Pos(), "global math/rand.%s: draw from the env-threaded source (sim.Env.Rand / Proc.Rand) so the seed determines the run, or annotate //cloudrepl:allow-simrand <reason>", name)
		case (name == "New" || name == "NewSource" || strings.HasPrefix(name, "NewPCG") || name == "NewChaCha8") && !inSimKernel:
			pass.Reportf(sel.Pos(), "rand.%s outside the sim kernel: construct randomness once in sim.NewEnv(seed) and thread *rand.Rand through, or annotate //cloudrepl:allow-simrand <reason>", name)
		}
		return true
	})
	return nil
}

// checkObserver reports every use of a math/rand object — a function, the
// Rand type, a method of it — and every Env.Rand or Proc.Rand of the sim
// kernel in an observer package.
func checkObserver(pass *Pass) {
	pass.Inspect(func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		path := obj.Pkg().Path()
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(id.Pos(), "math/rand.%s in %s, which observes the run: observing must not change it, so draw from a private generator seeded from the run, never from its random stream", obj.Name(), pass.Path)
		} else if fn, ok := obj.(*types.Func); ok && path == simRandEnvPkg && fn.Name() == "Rand" && fn.Type().(*types.Signature).Recv() != nil {
			pass.Reportf(id.Pos(), "sim Rand in %s, which observes the run: a draw from the run's random stream changes the run being observed", pass.Path)
		}
		return true
	})
}
