package pool

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"cloudrepl/internal/sim"
)

type fakeConn struct {
	id     int
	closed bool
}

func newTestPool(env *sim.Env, cfg Config) (*Pool[*fakeConn], *int) {
	created := 0
	p := New(env, cfg,
		func() *fakeConn { created++; return &fakeConn{id: created} },
		func(c *fakeConn) { c.closed = true })
	return p, &created
}

func TestBorrowCreatesUpToMaxActive(t *testing.T) {
	env := sim.NewEnv(1)
	pl, created := newTestPool(env, Config{MaxActive: 3, MaxIdle: 3})
	env.Go("user", func(p *sim.Proc) {
		var conns []*fakeConn
		for i := 0; i < 3; i++ {
			c, err := pl.Borrow(p)
			if err != nil {
				t.Errorf("borrow %d: %v", i, err)
			}
			conns = append(conns, c)
		}
		if *created != 3 {
			t.Errorf("created %d, want 3", *created)
		}
		for _, c := range conns {
			pl.Return(c)
		}
	})
	env.Run()
	if pl.Idle() != 3 || pl.Active() != 3 {
		t.Fatalf("idle=%d active=%d", pl.Idle(), pl.Active())
	}
}

func TestBorrowReusesIdle(t *testing.T) {
	env := sim.NewEnv(1)
	pl, created := newTestPool(env, Config{MaxActive: 2, MaxIdle: 2})
	env.Go("user", func(p *sim.Proc) {
		c1, _ := pl.Borrow(p)
		pl.Return(c1)
		c2, _ := pl.Borrow(p)
		if c1 != c2 {
			t.Error("idle connection not reused")
		}
		pl.Return(c2)
	})
	env.Run()
	if *created != 1 {
		t.Fatalf("created %d, want 1", *created)
	}
}

func TestBorrowBlocksUntilReturn(t *testing.T) {
	env := sim.NewEnv(1)
	pl, _ := newTestPool(env, Config{MaxActive: 1, MaxIdle: 1})
	var got sim.Time
	env.Go("holder", func(p *sim.Proc) {
		c, _ := pl.Borrow(p)
		p.Sleep(5 * time.Second)
		pl.Return(c)
	})
	env.Go("waiter", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // ensure holder goes first
		c, err := pl.Borrow(p)
		if err != nil {
			t.Errorf("borrow: %v", err)
		}
		got = p.Now()
		pl.Return(c)
	})
	env.Run()
	if got != 5*time.Second {
		t.Fatalf("waiter unblocked at %v, want 5s", got)
	}
	if pl.Stats().Waits != 1 {
		t.Fatalf("stats: %+v", pl.Stats())
	}
}

func TestBorrowTimeout(t *testing.T) {
	env := sim.NewEnv(1)
	pl, _ := newTestPool(env, Config{MaxActive: 1, MaxIdle: 1, MaxWait: time.Second})
	env.Go("holder", func(p *sim.Proc) {
		c, _ := pl.Borrow(p)
		p.Sleep(time.Hour)
		pl.Return(c)
	})
	var err error
	var at sim.Time
	env.Go("waiter", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		_, err = pl.Borrow(p)
		at = p.Now()
	})
	env.RunUntil(2 * time.Second)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if at != time.Second+time.Millisecond {
		t.Fatalf("timed out at %v", at)
	}
	if pl.Stats().Timeouts != 1 {
		t.Fatalf("stats: %+v", pl.Stats())
	}
	env.Stop()
	env.Shutdown()
}

func TestMaxIdleTrimsOnReturn(t *testing.T) {
	env := sim.NewEnv(1)
	pl, _ := newTestPool(env, Config{MaxActive: 4, MaxIdle: 1})
	env.Go("user", func(p *sim.Proc) {
		var conns []*fakeConn
		for i := 0; i < 4; i++ {
			c, _ := pl.Borrow(p)
			conns = append(conns, c)
		}
		for _, c := range conns {
			pl.Return(c)
		}
		if pl.Idle() != 1 {
			t.Errorf("idle = %d, want 1", pl.Idle())
		}
		closed := 0
		for _, c := range conns {
			if c.closed {
				closed++
			}
		}
		if closed != 3 {
			t.Errorf("closed = %d, want 3", closed)
		}
	})
	env.Run()
	if pl.Active() != 1 {
		t.Fatalf("active = %d, want 1", pl.Active())
	}
}

func TestCloseFailsFutureBorrows(t *testing.T) {
	env := sim.NewEnv(1)
	pl, _ := newTestPool(env, Config{MaxActive: 2, MaxIdle: 2})
	env.Go("user", func(p *sim.Proc) {
		c, _ := pl.Borrow(p)
		pl.Return(c)
		pl.Close()
		if !c.closed {
			t.Error("idle connection not closed by Close")
		}
		if _, err := pl.Borrow(p); !errors.Is(err, ErrClosed) {
			t.Errorf("borrow after close: %v", err)
		}
	})
	env.Run()
}

func TestWaitersFIFOish(t *testing.T) {
	// All waiters eventually get a connection; none starve.
	env := sim.NewEnv(1)
	pl, _ := newTestPool(env, Config{MaxActive: 2, MaxIdle: 2})
	served := 0
	for i := 0; i < 20; i++ {
		env.Go("user", func(p *sim.Proc) {
			c, err := pl.Borrow(p)
			if err != nil {
				t.Errorf("borrow: %v", err)
				return
			}
			p.Sleep(100 * time.Millisecond)
			pl.Return(c)
			served++
		})
	}
	env.Run()
	if served != 20 {
		t.Fatalf("served = %d, want 20", served)
	}
}

// Property: under any workload of borrow/hold/return cycles, the pool never
// exceeds MaxActive simultaneously-borrowed connections and conserves them
// (borrows = returns at quiesce).
func TestPoolCapacityInvariantProperty(t *testing.T) {
	f := func(seed int64, users, maxActive uint8) bool {
		nu := int(users%20) + 1
		ma := int(maxActive%5) + 1
		env := sim.NewEnv(seed)
		pl, _ := newTestPool(env, Config{MaxActive: ma, MaxIdle: ma})
		out := 0
		violated := false
		for i := 0; i < nu; i++ {
			env.Go("user", func(p *sim.Proc) {
				for k := 0; k < 3; k++ {
					c, err := pl.Borrow(p)
					if err != nil {
						violated = true
						return
					}
					out++
					if out > ma {
						violated = true
					}
					p.Sleep(sim.Exp(p.Rand(), 10*time.Millisecond))
					out--
					pl.Return(c)
				}
			})
		}
		env.Run()
		return !violated && pl.Stats().Borrows == pl.Stats().Returns
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
