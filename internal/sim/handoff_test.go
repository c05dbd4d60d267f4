package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCallbackPanicOnProcGoroutineReachesRunRaw: a callback dispatched by a
// parking process panics on that process's goroutine; Run's caller gets the
// value as it was thrown, the process is not reported as panicked, and it
// resumes on the next Run.
func TestCallbackPanicOnProcGoroutineReachesRunRaw(t *testing.T) {
	type boom struct{ n int }
	e := NewEnv(1)
	defer e.Shutdown()
	woke := false
	host := e.Go("host", func(p *Proc) {
		p.Env().After(time.Millisecond, func() {
			if e.cur != nil {
				t.Errorf("callback ran with process %q current", e.cur.name)
			}
			panic(boom{7})
		})
		p.Sleep(time.Second) // parks, and dispatches the callback itself
		woke = true
	})
	r := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if b, ok := r.(boom); !ok || b.n != 7 {
		t.Fatalf("Run panicked with %#v; want the callback's boom{7} as it was", r)
	}
	if e.handoffs != 1 {
		t.Fatalf("%d handoffs; want 1 (the callback ran on the host's goroutine)", e.handoffs)
	}
	if live(e) != 1 || host.ParkedOn() != "timer" {
		t.Fatalf("after the callback's panic: %d alive, host %s; want the host parked on its timer", live(e), host.ParkedOn())
	}
	e.Run()
	if !woke || live(e) != 0 || e.Now() != time.Second {
		t.Fatalf("host woke %v at %v with %d alive; want it to finish at 1s", woke, e.Now(), live(e))
	}
}

// TestCallbackGoexitOnProcGoroutineEndsRunCaller: t.FailNow in a callback
// leaves through runtime.Goexit. Dispatched on the goroutine of a parked or
// a returned process, it takes that goroutine with it, so its worker must
// not be reused, and Run's caller leaves the same way instead of waiting for
// a baton that never comes back.
func TestCallbackGoexitOnProcGoroutineEndsRunCaller(t *testing.T) {
	for _, host := range []string{"parked", "returned"} {
		e := NewEnv(1)
		e.Go("host", func(p *Proc) {
			p.Env().After(time.Millisecond, runtime.Goexit)
			if host == "parked" {
				p.Sleep(time.Second)
			}
		})
		returned := make(chan bool)
		go func() {
			ok := false
			defer func() { returned <- ok }()
			e.Run()
			ok = true
		}()
		if <-returned {
			t.Fatalf("%s host: Run returned normally after a callback's Goexit", host)
		}
		if live(e) != 0 || len(e.idle) != 0 {
			t.Fatalf("%s host: %d alive, %d idle after the Goexit; want 0 and 0", host, live(e), len(e.idle))
		}
		e.Shutdown()
	}
}

// TestStopFromInlinedCallbackAndProcess: Stop ends Run whichever goroutine
// holds the baton when it is called, and the clock stays where the event
// that called it left it.
func TestStopFromInlinedCallbackAndProcess(t *testing.T) {
	for _, from := range []string{"callback", "process"} {
		e := NewEnv(1)
		ticks := 0
		e.Go("ticker", func(p *Proc) {
			for {
				p.Sleep(time.Millisecond)
				ticks++
				if from == "process" && ticks == 5 {
					p.Env().Stop()
				}
			}
		})
		stopAt := 5 * time.Millisecond
		if from == "callback" {
			stopAt += time.Millisecond / 2
			e.After(stopAt, e.Stop) // dispatched by the ticker as it parks
		}
		e.RunUntil(time.Second)
		if ticks != 5 || e.Now() != stopAt {
			t.Fatalf("stop from %s: %d ticks at %v; want 5 at %v", from, ticks, e.Now(), stopAt)
		}
		e.RunUntil(10 * time.Millisecond)
		if ticks != 10 || e.Now() != 10*time.Millisecond {
			t.Fatalf("stop from %s, then RunUntil(10ms): %d ticks at %v; want 10 at 10ms", from, ticks, e.Now())
		}
		e.Shutdown()
	}
}

// TestRunUntilHorizonHoldsOnProcGoroutine: a process holding the baton
// dispatches nothing past RunUntil's horizon — neither its own next wakeup
// nor a callback it scheduled — and both still run on the next call.
func TestRunUntilHorizonHoldsOnProcGoroutine(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	var woke []Time
	late := false
	e.Go("sleeper", func(p *Proc) {
		p.Env().After(3600*time.Microsecond, func() { late = true })
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
			woke = append(woke, p.Now())
		}
	})
	e.RunUntil(3500 * time.Microsecond)
	if len(woke) != 3 || late || e.Now() != 3500*time.Microsecond || pending(e) != 2 {
		t.Fatalf("RunUntil(3.5ms): woke %v, late callback %v, now %v, %d pending; want 3 wakeups, no callback, 3.5ms, 2 pending",
			woke, late, e.Now(), pending(e))
	}
	e.Run()
	if len(woke) != 10 || !late {
		t.Fatalf("after Run: %d wakeups, late callback %v; want 10 and true", len(woke), late)
	}
}

// TestSelfResumeTakesNoHandoff: a process that is its own next event goes
// on with no channel operation, and a process spawned onto a returning
// process's own worker starts on it directly; only the Run caller's first
// resume crosses a channel.
func TestSelfResumeTakesNoHandoff(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	ran := false
	e.Go("alone", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Millisecond)
		}
		// Dispatched by this process's exit, after its worker went idle: the
		// spawn takes that worker and its start is the next event.
		p.Env().After(0, func() {
			e.Go("successor", func(p *Proc) {
				p.Sleep(time.Millisecond)
				ran = true
			})
		})
	})
	e.Run()
	if !ran || e.Events() != 1004 {
		t.Fatalf("successor ran %v after %d events; want true after 1004", ran, e.Events())
	}
	if e.handoffs != 1 {
		t.Fatalf("%d handoffs over 1000 self-resumes and a spawn onto the same worker; want 1", e.handoffs)
	}
	// Two processes taking turns hand the baton to each other directly.
	before := e.handoffs
	for _, name := range []string{"ping", "pong"} {
		e.Go(name, func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(time.Millisecond)
			}
		})
	}
	e.Run()
	if n := e.handoffs - before; n > 202 {
		t.Fatalf("%d handoffs for two processes alternating 100 times; want at most 202", n)
	}
}

// TestEnvsOnTwoGoroutinesTradeWorkers: Envs shut down and built again on two
// goroutines at once pass workers to each other through the process-wide
// pool, and each still replays its seed exactly (run under -race by make
// race-shards).
func TestEnvsOnTwoGoroutinesTradeWorkers(t *testing.T) {
	run := func() (uint64, Time) {
		e := NewEnv(7)
		defer e.Shutdown()
		for i := 0; i < 16; i++ {
			e.Go("peer", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(time.Duration(1+p.Rand().Intn(5)) * time.Millisecond)
				}
			})
		}
		e.Run()
		return e.Events(), e.Now()
	}
	wantEvents, wantEnd := run()
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				if events, end := run(); events != wantEvents || end != wantEnd {
					errs <- "a replay diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatalf("%s: want %d events ending at %v", msg, wantEvents, wantEnd)
	}
}
