package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to fall to at most want:
// a goroutine that has been told to leave is counted until it has actually
// returned, which the teller cannot observe.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestSequentialSpawnsReuseOneWorker: ten thousand processes that each start
// after the last one finished run on one goroutine, and a spawn allocates
// the Proc and nothing else.
func TestSequentialSpawnsReuseOneWorker(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	base := runtime.NumGoroutine()
	ran := 0
	body := func(p *Proc) {
		p.Sleep(time.Microsecond)
		ran++
	}
	for i := 0; i < 10000; i++ {
		e.Go("one-shot", body)
		e.Run()
		if i%1000 == 0 {
			if n := runtime.NumGoroutine(); n > base+1 {
				t.Fatalf("after %d sequential spawns: %d goroutines over a baseline of %d; want at most one worker", i+1, n, base)
			}
		}
	}
	if ran != 10000 || len(e.idle) != 1 {
		t.Fatalf("ran %d processes with %d idle workers; want 10000 and 1", ran, len(e.idle))
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Go("one-shot", body)
		e.Run()
	}); allocs > 1 {
		t.Fatalf("spawn + run + exit allocates %.2f objects; want at most 1 (the Proc)", allocs)
	}
}

// TestConcurrentSpawnsGetOwnWorkers: processes alive at the same time cannot
// share a goroutine; the pool grows to the peak and no further, and ids stay
// spawn-ordered whichever worker a process lands on.
func TestConcurrentSpawnsGetOwnWorkers(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	var ids []uint64
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			ids = append(ids, e.Go("peer", func(p *Proc) { p.Sleep(time.Millisecond) }).ID())
		}
		e.Run()
		if len(e.idle) != 4 {
			t.Fatalf("round %d: %d idle workers after four concurrent processes; want 4", round, len(e.idle))
		}
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("proc ids %v are not spawn-ordered", ids)
		}
	}
}

// TestShutdownReleasesIdleWorkers: parked workers hold goroutines, so
// Shutdown has to let them go along with the live processes.
func TestShutdownReleasesIdleWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv(1)
	q := NewQueue[int](e, "never")
	for i := 0; i < 8; i++ {
		e.Go("finishes", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	e.Go("parked", func(p *Proc) { q.Get(p) })
	e.Run()
	if len(e.idle) != 8 || e.Alive() != 1 {
		t.Fatalf("%d idle workers, %d live processes; want 8 and 1", len(e.idle), e.Alive())
	}
	e.Shutdown()
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Shutdown; want the baseline %d", n, base)
	}
	if e.idle != nil {
		t.Fatalf("%d workers still listed idle after Shutdown", len(e.idle))
	}
}

// TestPanicOnRecycledWorkerNamesItsProc: the report names the process that
// panicked, not an earlier tenant of the goroutine, and the goroutine is
// fit to run the next process.
func TestPanicOnRecycledWorkerNamesItsProc(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	e.Go("first-tenant", func(p *Proc) {})
	e.Run()
	boom := e.Go("second-tenant", func(p *Proc) { panic("kaboom") })
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{"kaboom", `"second-tenant"`, fmt.Sprintf("proc %d", boom.ID())} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic report missing %s:\n%s", want, msg)
				}
			}
			if strings.Contains(msg, "first-tenant") {
				t.Errorf("panic report names the goroutine's earlier process:\n%s", msg)
			}
		}()
		e.Run()
	}()
	if e.Alive() != 0 || len(e.idle) != 1 {
		t.Fatalf("after the panic: %d alive, %d idle; want 0 and 1", e.Alive(), len(e.idle))
	}
	ran := false
	e.Go("third-tenant", func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Fatal("the worker that recovered a panic did not run the next process")
	}
}

// TestGoexitInProcRetiresWorker: t.FailNow inside a process leaves through
// runtime.Goexit; the scheduler must still hear the process end, and must
// not hand the departed goroutine to the next spawn.
func TestGoexitInProcRetiresWorker(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	e.Go("leaves", func(p *Proc) { runtime.Goexit() })
	e.Run()
	if e.Alive() != 0 || len(e.idle) != 0 {
		t.Fatalf("after Goexit: %d alive, %d idle; want 0 and 0", e.Alive(), len(e.idle))
	}
	ran := false
	e.Go("next", func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Fatal("spawn after a Goexit did not run")
	}
}

// TestWaitForGraphOmitsIdleWorkers: the deadlock report lists processes, and
// a parked worker is not one.
func TestWaitForGraphOmitsIdleWorkers(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	sig := NewSignal(e).Named("never")
	for i := 0; i < 3; i++ {
		e.Go("done-early", func(p *Proc) {})
	}
	e.Go("stuck", func(p *Proc) { sig.Wait(p) })
	e.Run()
	g := e.WaitForGraph()
	if strings.Count(g, "\n") != 1 || !strings.Contains(g, "stuck") || strings.Contains(g, "done-early") {
		t.Fatalf("wait-for graph with 3 idle workers and one parked process:\n%s", g)
	}
}
