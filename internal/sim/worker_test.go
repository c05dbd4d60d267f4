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
// after the last one finished run on one goroutine.
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
}

// TestSpawnAllocatesNothingWarm: once an Env has run a process to its return,
// the next spawn takes that Proc and that worker back, so Go, the run and the
// return allocate nothing — one process at a time or several side by side —
// and ids still count spawns.
func TestSpawnAllocatesNothingWarm(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	body := func(p *Proc) {}
	sleeper := func(p *Proc) { p.Sleep(time.Microsecond) }
	one := func() {
		e.Go("one-shot", body)
		e.Run()
	}
	three := func() {
		for i := 0; i < 3; i++ {
			e.Go("peer", sleeper)
		}
		e.Run()
	}
	one()
	three()
	if allocs := testing.AllocsPerRun(1000, one); allocs != 0 {
		t.Errorf("a warm Go + return allocates %.2f objects; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, three); allocs != 0 {
		t.Errorf("three warm processes side by side allocate %.2f objects; want 0", allocs)
	}
	if len(e.pfree) != 3 {
		t.Errorf("%d Procs on the free list after at most three at once; want 3", len(e.pfree))
	}
	before := e.procSeq
	if id := e.Go("counted", body).ID(); id != before+1 {
		t.Errorf("a reused Proc took id %d; want %d, the next spawn's", id, before+1)
	}
	e.Run()
}

// TestPanickedProcIsNeverReused: a process that panics is reported under its
// own name and id, however many spawns came before it (its Proc is a reused
// one) or come after it; and a Proc that ended other than by returning —
// a panic, runtime.Goexit — never goes back on the free list, so the handle
// the panic report was made from still names that process.
func TestPanickedProcIsNeverReused(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprint("done-", i), func(p *Proc) {})
	}
	e.Run()
	boom := e.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprint("later-", i), func(p *Proc) {})
	}
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.Run()
		return ""
	}()
	for _, want := range []string{"kaboom", `"boom"`, fmt.Sprintf("proc %d", boom.ID())} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic report missing %s:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "done-") || strings.Contains(msg, "later-") {
		t.Errorf("panic report names another process:\n%s", msg)
	}
	left := e.Go("leaves", func(p *Proc) { runtime.Goexit() })
	e.Run()
	for i := 0; i < 16; i++ {
		if q := e.Go("after", func(p *Proc) {}); q == boom || q == left {
			t.Fatalf("spawn %d reused the Proc of a process that panicked or left by runtime.Goexit", i)
		}
	}
	e.Run()
	if boom.Name() != "boom" || boom.ID() != 4 {
		t.Errorf("the panicked process's handle reads %q proc %d after later spawns; want \"boom\" proc 4", boom.Name(), boom.ID())
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

// TestShutdownReleasesIdleWorkers: Shutdown hands an Env's workers to the
// process-wide pool. However many Envs come and go, the goroutines they
// leave stay within the pool's bound; a later Env's spawns start no
// goroutine; and a worker whose goroutine left by runtime.Goexit never
// enters the pool.
func TestShutdownReleasesIdleWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		e := NewEnv(int64(round))
		q := NewQueue[int](e, "never")
		for i := 0; i < maxPooledWorkers+64; i++ {
			e.Go("finishes", func(p *Proc) { p.Sleep(time.Millisecond) })
		}
		e.Go("parked", func(p *Proc) { q.Get(p) })
		e.Run()
		if len(e.idle) != maxPooledWorkers+64 || live(e) != 1 {
			t.Fatalf("%d idle workers, %d live processes; want %d and 1", len(e.idle), live(e), maxPooledWorkers+64)
		}
		e.Shutdown()
		if e.idle != nil {
			t.Fatalf("%d workers still listed idle after Shutdown", len(e.idle))
		}
		if n := settleGoroutines(base + maxPooledWorkers); n > base+maxPooledWorkers {
			t.Fatalf("round %d: %d goroutines after Shutdown; want at most the baseline %d plus the pool's %d",
				round, n, base, maxPooledWorkers)
		}
	}

	before := runtime.NumGoroutine()
	second := NewEnv(1)
	for i := 0; i < 8; i++ {
		second.Go("pooled", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	second.Run()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("eight spawns on a new Env started %d goroutines; want 0 (the pool's workers)", n-before)
	}
	second.Shutdown()

	third := NewEnv(1)
	w := third.Go("leaves", func(p *Proc) { runtime.Goexit() }).w
	third.Run()
	third.Shutdown()
	workerPool.Lock()
	defer workerPool.Unlock()
	for _, x := range workerPool.free {
		if x == w {
			t.Fatal("the worker whose goroutine left by runtime.Goexit is in the pool")
		}
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
	if live(e) != 0 || len(e.idle) != 1 {
		t.Fatalf("after the panic: %d alive, %d idle; want 0 and 1", live(e), len(e.idle))
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
	if live(e) != 0 || len(e.idle) != 0 {
		t.Fatalf("after Goexit: %d alive, %d idle; want 0 and 0", live(e), len(e.idle))
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
