// Fixture for the sharedstate analyzer: package-level state touched from
// RunShards workers or raw goroutines is flagged (writes always, reads when
// the var is written anywhere), as are locals captured and written by two
// sim procs that never synchronize through a sim primitive. Read-only
// globals, single-writer captures, and captures written by procs that charge
// a Resource or pass through a Queue are fine.
package sharedstate

import (
	"time"

	"cloudrepl/internal/experiment"
	"cloudrepl/internal/sim"
)

var hits int
var hits2 int
var hits3 int
var total int
var configName string
var approx int

func runAll(specs []experiment.RunSpec) {
	total = len(specs) // sequential setup write: fine on its own
	_, _ = experiment.RunShards(specs, 2, func(i int, res experiment.RunResult) {
		hits++ // want `package-level var hits written from sharedstate\.runAll\$lit, which runs on a real goroutine`
		bump()
		_ = total      // want `package-level var total read from sharedstate\.runAll\$lit, which runs on a real goroutine, and written at`
		_ = configName // never written anywhere: reads cannot race
	})
}

// bump is worker context by reachability: the call graph carries the
// parallel root through ordinary calls.
func bump() {
	hits2++ // want `package-level var hits2 written from sharedstate\.bump`
}

func rawGoroutine() {
	go func() {
		hits3++ // want `package-level var hits3 written from`
	}()
}

func unsyncProcs(env *sim.Env) {
	counter := 0
	env.Go("a", func(p *sim.Proc) { counter++ })
	env.Go("b", func(p *sim.Proc) { counter++ }) // want `captured variable counter is written by 2 spawned sim procs with no sim-primitive synchronization`
	_ = counter
}

func guardedProcs(env *sim.Env) {
	cpu := sim.NewResource(env, "cpu", 1)
	counter := 0
	env.Go("a", func(p *sim.Proc) { cpu.Use(p, time.Millisecond); counter++ })
	env.Go("b", func(p *sim.Proc) { cpu.Use(p, time.Millisecond); counter++ })
	_ = counter
}

func queuedProcs(env *sim.Env) {
	q := sim.NewQueue[int](env, "q")
	last := 0
	env.Go("producer", func(p *sim.Proc) { last = 1; q.Put(1) })
	env.Go("consumer", func(p *sim.Proc) { last, _ = q.Get(p) })
	_ = last
}

func singleWriter(env *sim.Env) {
	done := false
	env.Go("only", func(p *sim.Proc) { done = true })
	_ = done
}

func parallelCapture(specs []experiment.RunSpec) {
	sum := 0
	_, _ = experiment.RunShards(specs, 2, func(i int, res experiment.RunResult) { sum++ })
	go func() { sum++ }() // want `captured variable sum is written by 2 concurrent goroutines \(data race\)`
	_ = sum
}

//cloudrepl:allow-sharedstate fixture exercising the annotation escape hatch
func allowedWrite(specs []experiment.RunSpec) {
	_, _ = experiment.RunShards(specs, 1, func(i int, res experiment.RunResult) { approx++ })
}
