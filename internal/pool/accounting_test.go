package pool

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cloudrepl/internal/sim"
)

// TestWaitsCountedOncePerBlockedBorrow: a borrow that loses several
// wake-loop races before winning a connection is still one wait, not one
// per loop iteration.
func TestWaitsCountedOncePerBlockedBorrow(t *testing.T) {
	env := sim.NewEnv(1)
	pl, _ := newTestPool(env, Config{MaxActive: 1, MaxIdle: 1})
	env.Go("holder", func(p *sim.Proc) {
		c, _ := pl.Borrow(p)
		for i := 0; i < 5; i++ {
			p.Sleep(time.Second)
			pl.Return(c)
			// Re-borrow without yielding: the blocked waiter wakes to an
			// empty pool each round and must sleep again.
			c, _ = pl.Borrow(p)
		}
		p.Sleep(time.Second)
		pl.Return(c)
	})
	var got sim.Time
	env.Go("waiter", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		c, err := pl.Borrow(p)
		if err != nil {
			t.Errorf("borrow: %v", err)
			return
		}
		got = p.Now()
		pl.Return(c)
	})
	env.Run()
	env.Shutdown()
	if got != 6*time.Second {
		t.Fatalf("waiter unblocked at %v, want 6s", got)
	}
	if w := pl.Stats().Waits; w != 1 {
		t.Fatalf("Waits = %d for one blocked borrow, want 1", w)
	}
}

// TestTimeoutStatsUnderContention: several waiters against one held
// connection each record exactly one wait and one timeout.
func TestTimeoutStatsUnderContention(t *testing.T) {
	env := sim.NewEnv(2)
	pl, _ := newTestPool(env, Config{MaxActive: 1, MaxIdle: 1, MaxWait: time.Second})
	env.Go("holder", func(p *sim.Proc) {
		c, _ := pl.Borrow(p)
		p.Sleep(time.Hour)
		pl.Return(c)
	})
	timedOut := 0
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			if _, err := pl.Borrow(p); errors.Is(err, ErrExhausted) {
				timedOut++
			}
		})
	}
	env.RunUntil(2 * time.Second)
	env.Stop()
	env.Shutdown()
	if timedOut != 3 {
		t.Fatalf("%d of 3 waiters timed out", timedOut)
	}
	st := pl.Stats()
	if st.Waits != 3 || st.Timeouts != 3 {
		t.Fatalf("stats: %+v, want 3 waits and 3 timeouts", st)
	}
	if st.Borrows != 1 {
		t.Fatalf("Borrows = %d, want only the holder's", st.Borrows)
	}
}
