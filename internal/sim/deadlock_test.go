package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestWaitForGraphNamesParkSites: the wait-for dump must name every live
// process and the exact primitive it is parked on — that is what makes a
// deadlock report attributable without a debugger.
func TestWaitForGraphNamesParkSites(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "relay(slave1)")
	r := NewResource(env, "cpu(master)", 1)
	sig := NewSignal(env).Named("semisync-ack(master)")

	env.Go("holder", func(p *Proc) {
		r.Use(p, time.Hour) // keeps the resource busy, parked on a timer
	})
	env.Go("applier", func(p *Proc) { q.Get(p) })
	env.Go("contender", func(p *Proc) { r.Use(p, time.Second) })
	env.Go("waiter", func(p *Proc) { sig.Wait(p) })
	env.RunUntil(env.Now() + time.Minute)

	g := env.WaitForGraph()
	for _, s := range []string{
		"holder", "timer",
		"applier", "queue relay(slave1)",
		"contender", "resource cpu(master)",
		"waiter", "signal semisync-ack(master)",
	} {
		if !strings.Contains(g, s) {
			t.Errorf("wait-for graph missing %q:\n%s", s, g)
		}
	}

	// Spawn-ordered ids label the same processes in determinism diffs.
	if !strings.Contains(g, "proc 1") || !strings.Contains(g, "proc 4") {
		t.Errorf("wait-for graph missing spawn-ordered ids:\n%s", g)
	}
	env.Shutdown()
}

// TestShutdownDeadlockPanicDumpsGraph: a process whose deferred cleanup
// blocks on a primitive the scheduler does not manage wedges Shutdown; the
// watchdog must convert the silent hang into a panic carrying the wait-for
// graph instead of the old opaque timeout.
func TestShutdownDeadlockPanicDumpsGraph(t *testing.T) {
	old := shutdownWatchdog
	shutdownWatchdog = 200 * time.Millisecond
	defer func() { shutdownWatchdog = old }()

	env := NewEnv(1)
	wedge := make(chan struct{})
	env.Go("wedged-applier", func(p *Proc) {
		// Deferred cleanup stuck on a raw channel: exactly the bug class the
		// detector exists for (cleanup relying on kernel-external signaling).
		defer func() { <-wedge }()
		p.Sleep(time.Hour)
	})
	env.RunUntil(env.Now() + time.Minute)

	defer close(wedge) // unstick the goroutine so the test process drains
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Shutdown returned despite a wedged process")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{
			"deadlock during Shutdown",
			"wait-for graph",
			"wedged-applier",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock panic missing %q:\n%s", want, msg)
			}
		}
	}()
	env.Shutdown()
}

// TestShutdownCleanWithParkedProcs: processes parked on every primitive
// kind unwind cleanly — the watchdog must never fire on a healthy model.
func TestShutdownCleanWithParkedProcs(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "relay")
	sig := NewSignal(env).Named("ack")
	r := NewResource(env, "cpu", 1)
	env.Go("a", func(p *Proc) { q.Get(p) })
	env.Go("b", func(p *Proc) { sig.Wait(p) })
	env.Go("c", func(p *Proc) { r.Use(p, time.Hour) })
	env.Go("d", func(p *Proc) { r.Use(p, time.Second) })
	env.RunUntil(env.Now() + time.Minute)
	env.Shutdown()
	if env.live() != 0 {
		t.Fatalf("%d process(es) alive after Shutdown", env.live())
	}
	if g := env.WaitForGraph(); g != "" {
		t.Fatalf("wait-for graph not empty after Shutdown:\n%s", g)
	}
}
