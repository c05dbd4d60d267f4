package analysis_test

import (
	"strings"
	"testing"

	"cloudrepl/internal/analysis"
)

// loadCallGraphFixture returns the whole-program call graph over the callgraph
// fixture package (plus its sim/experiment dependencies, and the directives
// fixture it is loaded with).
func loadCallGraphFixture(t *testing.T) *analysis.CallGraph {
	t.Helper()
	loadOnce(t)
	return loaded.callGraph
}

func nodeByName(t *testing.T, cg *analysis.CallGraph, name string) *analysis.CGNode {
	t.Helper()
	var found *analysis.CGNode
	for _, n := range cg.Nodes {
		if n.Name() == name {
			if found != nil {
				t.Fatalf("two nodes named %s", name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node named %s", name)
	}
	return found
}

func edgesTo(n *analysis.CGNode, callee string) []analysis.CGEdge {
	var out []analysis.CGEdge
	for _, e := range n.Out {
		if e.Callee.Name() == callee {
			out = append(out, e)
		}
	}
	return out
}

func TestCallGraphDirectCall(t *testing.T) {
	cg := loadCallGraphFixture(t)
	es := edgesTo(nodeByName(t, cg, "callgraph.direct"), "callgraph.helper")
	if len(es) != 1 || es[0].Kind != analysis.EdgeCall || es[0].Dynamic {
		t.Fatalf("direct -> helper edges = %v, want one static EdgeCall", es)
	}
}

func TestCallGraphInterfaceWidening(t *testing.T) {
	cg := loadCallGraphFixture(t)
	n := nodeByName(t, cg, "callgraph.viaInterface")
	var callees []string
	for _, e := range n.Out {
		if e.Kind == analysis.EdgeCall && strings.HasSuffix(e.Callee.Name(), ".Tick") {
			if !e.Dynamic {
				t.Errorf("widened edge to %s not marked Dynamic", e.Callee.Name())
			}
			callees = append(callees, e.Callee.Name())
		}
	}
	if len(callees) != 2 {
		t.Fatalf("interface call widened to %v, want both fast.Tick and slow.Tick", callees)
	}
}

func TestCallGraphSpawnKinds(t *testing.T) {
	cg := loadCallGraphFixture(t)

	if es := edgesTo(nodeByName(t, cg, "callgraph.spawnProc"), "callgraph.spawnProc$lit"); len(es) != 1 || es[0].Kind != analysis.EdgeSpawnProc {
		t.Errorf("env.Go literal edges = %v, want one EdgeSpawnProc", es)
	}
	if es := edgesTo(nodeByName(t, cg, "callgraph.spawnGoroutine"), "callgraph.helper"); len(es) != 1 || es[0].Kind != analysis.EdgeSpawnParallel {
		t.Errorf("go-statement edges = %v, want one EdgeSpawnParallel", es)
	}
	if es := edgesTo(nodeByName(t, cg, "callgraph.spawnWorkers"), "callgraph.spawnWorkers$lit"); len(es) != 1 || es[0].Kind != analysis.EdgeSpawnParallel {
		t.Errorf("RunShards callback edges = %v, want one EdgeSpawnParallel", es)
	}
	if es := edgesTo(nodeByName(t, cg, "callgraph.escape"), "callgraph.helper"); len(es) != 1 || es[0].Kind != analysis.EdgeRef {
		t.Errorf("escaped func value edges = %v, want one EdgeRef", es)
	}
}

func TestCallGraphSpawnRootsAndReachability(t *testing.T) {
	cg := loadCallGraphFixture(t)

	roots := cg.SpawnRoots(analysis.EdgeSpawnParallel)
	names := map[string]bool{}
	for _, r := range roots {
		names[r.Name()] = true
	}
	// helper is spawned directly by the go statement; the RunShards callback
	// literal is the other parallel entry in this fixture's package.
	if !names["callgraph.helper"] || !names["callgraph.spawnWorkers$lit"] {
		t.Fatalf("parallel roots = %v, want callgraph.helper and callgraph.spawnWorkers$lit", names)
	}

	// From the sim-proc literal, plain-call reachability includes helper.
	procRoots := []*analysis.CGNode{nodeByName(t, cg, "callgraph.spawnProc$lit")}
	reach := cg.Reachable(procRoots, func(k analysis.EdgeKind) bool { return k == analysis.EdgeCall })
	if !reach[nodeByName(t, cg, "callgraph.helper")] {
		t.Error("helper not reachable from the sim-proc body over call edges")
	}
	if reach[nodeByName(t, cg, "callgraph.direct")] {
		t.Error("reachability leaked backwards to a caller")
	}
}
