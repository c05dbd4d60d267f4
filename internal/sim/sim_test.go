package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	env := NewEnv(1)
	var at Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		at = p.Now()
	})
	env.Run()
	if at != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", at)
	}
	if env.Now() != 3*time.Second {
		t.Fatalf("env.Now() = %v, want 3s", env.Now())
	}
}

func TestRunIsInstantInWallClock(t *testing.T) {
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(24 * time.Hour)
	})
	start := time.Now()
	env.Run()
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("simulating 24h took %v of wall time", wall)
	}
}

func TestEventOrdering(t *testing.T) {
	env := NewEnv(1)
	var order []string
	for _, tc := range []struct {
		name  string
		delay time.Duration
	}{
		{"c", 3 * time.Millisecond},
		{"a", 1 * time.Millisecond},
		{"b", 2 * time.Millisecond},
	} {
		tc := tc
		env.Go(tc.name, func(p *Proc) {
			p.Sleep(tc.delay)
			order = append(order, tc.name)
		})
	}
	env.Run()
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestScheduleCallback(t *testing.T) {
	env := NewEnv(1)
	fired := Time(-1)
	env.Schedule(5*time.Millisecond, func() { fired = env.Now() })
	env.Run()
	if fired != 5*time.Millisecond {
		t.Fatalf("callback fired at %v, want 5ms", fired)
	}
}

func TestScheduleCancel(t *testing.T) {
	env := NewEnv(1)
	fired := false
	cancel := env.Schedule(5*time.Millisecond, func() { fired = true })
	cancel()
	env.Run()
	if fired {
		t.Fatal("cancelled callback fired")
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	env := NewEnv(1)
	var fired []Time
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		env.Schedule(d, func() { fired = append(fired, env.Now()) })
	}
	env.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if env.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", env.Now())
	}
	env.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(fired))
	}
}

func TestRunForAdvancesEvenWithoutEvents(t *testing.T) {
	env := NewEnv(1)
	env.RunUntil(env.Now() + 10*time.Second)
	if env.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", env.Now())
	}
}

func TestStop(t *testing.T) {
	env := NewEnv(1)
	count := 0
	env.Go("counter", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Millisecond)
			count++
			if count == 10 {
				p.Env().Stop()
			}
		}
	})
	env.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10 after Stop", count)
	}
	env.Shutdown()
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) string {
		env := NewEnv(seed)
		var b strings.Builder
		for i := 0; i < 5; i++ {
			i := i
			env.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(Exp(p.Rand(), 10*time.Millisecond))
					fmt.Fprintf(&b, "%d@%d;", i, p.Now().Microseconds())
				}
			})
		}
		env.Run()
		return b.String()
	}
	a, b := trace(42), trace(42)
	if a != b {
		t.Fatal("same seed produced different traces")
	}
	if c := trace(43); c == a {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	env := NewEnv(1)
	env.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate to Run")
		}
		if !strings.Contains(fmt.Sprint(r), "kaboom") {
			t.Fatalf("panic %v does not mention original cause", r)
		}
	}()
	env.Run()
}

func TestShutdownUnblocksParkedProcesses(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "never")
	for i := 0; i < 5; i++ {
		env.Go("blocked", func(p *Proc) {
			q.Get(p) // never satisfied
		})
	}
	env.Run() // returns with the 5 procs parked
	if live(env) != 5 {
		t.Fatalf("alive = %d, want 5", live(env))
	}
	env.Shutdown()
	if live(env) != 0 {
		t.Fatalf("alive after Shutdown = %d, want 0", live(env))
	}
}

func TestShutdownBeforeFirstResume(t *testing.T) {
	env := NewEnv(1)
	ran := false
	env.Go("neverruns", func(p *Proc) { ran = true })
	// Shut down without running: the process is parked on its initial
	// resume and must still unwind.
	env.Shutdown()
	if ran {
		t.Fatal("process body ran despite immediate shutdown")
	}
	if live(env) != 0 {
		t.Fatalf("alive = %d, want 0", live(env))
	}
}

func TestGoFromProcessAndCallback(t *testing.T) {
	env := NewEnv(1)
	var got []string
	env.Go("parent", func(p *Proc) {
		p.Env().Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			got = append(got, "child")
		})
		got = append(got, "parent")
	})
	env.Schedule(2*time.Millisecond, func() {
		env.Go("late", func(c *Proc) { got = append(got, "late") })
	})
	env.Run()
	want := "parent,child,late"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("got %q, want %q", s, want)
	}
}

func TestBlockingFromWrongGoroutinePanics(t *testing.T) {
	env := NewEnv(1)
	var victim *Proc
	env.Go("victim", func(p *Proc) {
		victim = p
		p.Sleep(time.Hour)
	})
	env.RunUntil(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when blocking from outside the process goroutine")
		}
		env.Shutdown()
	}()
	victim.Sleep(time.Second) // wrong goroutine: test goroutine, not victim's
}

// live counts the Env's live processes: its list, from first to last.
func live(e *Env) int {
	n := 0
	for p := e.first; p != nil; p = p.next {
		n++
	}
	return n
}

// pending counts the events still to dispatch: the calendar's live ones and
// the same-instant FIFO's that are not cancelled.
func pending(e *Env) int {
	n := e.queue.live
	for ev := e.due; ev != nil; ev = ev.next {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

func TestPendingAndAlive(t *testing.T) {
	env := NewEnv(1)
	env.Go("a", func(p *Proc) { p.Sleep(time.Second) })
	env.Go("b", func(p *Proc) { p.Sleep(2 * time.Second) })
	if live(env) != 2 {
		t.Fatalf("alive = %d, want 2", live(env))
	}
	if pending(env) != 2 {
		t.Fatalf("pending = %d, want 2", pending(env))
	}
	env.Run()
	if live(env) != 0 || pending(env) != 0 {
		t.Fatalf("after run: alive=%d pending=%d, want 0/0", live(env), pending(env))
	}
}
