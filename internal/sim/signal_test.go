package sim

import (
	"testing"
	"time"
)

func TestSignalBroadcastWakesAll(t *testing.T) {
	env := NewEnv(1)
	s := NewSignal(env)
	woken := 0
	for i := 0; i < 5; i++ {
		env.Go("waiter", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	env.Schedule(time.Millisecond, s.Broadcast)
	env.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
	if len(s.waiters) != 0 {
		t.Fatalf("%d waiter(s) after broadcast, want 0", len(s.waiters))
	}
}

func TestSignalWaitTimeoutFires(t *testing.T) {
	env := NewEnv(1)
	s := NewSignal(env)
	var got bool
	var when Time
	env.Go("waiter", func(p *Proc) {
		got = s.WaitTimeout(p, 10*time.Millisecond)
		when = p.Now()
	})
	env.Run()
	if got {
		t.Fatal("WaitTimeout reported signal, want timeout")
	}
	if when != 10*time.Millisecond {
		t.Fatalf("timed out at %v, want 10ms", when)
	}
}

func TestSignalWaitTimeoutSignaledFirst(t *testing.T) {
	env := NewEnv(1)
	s := NewSignal(env)
	var got bool
	env.Go("waiter", func(p *Proc) {
		got = s.WaitTimeout(p, 10*time.Millisecond)
	})
	env.Schedule(2*time.Millisecond, s.Broadcast)
	env.Run()
	if !got {
		t.Fatal("WaitTimeout reported timeout, want signal")
	}
	// No residual timer should wake anything later.
	if pending(env) != 0 {
		t.Fatalf("pending = %d after run, want 0", pending(env))
	}
}

func TestSignalBroadcastOnlyWakesCurrentWaiters(t *testing.T) {
	env := NewEnv(1)
	s := NewSignal(env)
	wakeups := 0
	env.Go("waiter", func(p *Proc) {
		s.Wait(p)
		wakeups++
		s.Wait(p) // waits for a second broadcast that never comes
		wakeups++
	})
	env.Schedule(time.Millisecond, s.Broadcast)
	env.Run()
	if wakeups != 1 {
		t.Fatalf("wakeups = %d, want 1", wakeups)
	}
	env.Shutdown()
}

func TestSignalDoubleBroadcastHarmless(t *testing.T) {
	env := NewEnv(1)
	s := NewSignal(env)
	woken := 0
	env.Go("waiter", func(p *Proc) {
		s.Wait(p)
		woken++
	})
	env.Schedule(time.Millisecond, func() {
		s.Broadcast()
		s.Broadcast()
	})
	env.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want exactly 1", woken)
	}
}
