// Package pool implements a DBCP-style connection pool on the simulation
// timeline: a bounded set of reusable connections with borrow/return
// semantics, an optional wait timeout, and idle-capacity trimming. The
// paper's customized Cloudstone uses exactly this component (Apache DBCP)
// so that emulated users reuse connections instead of paying per-operation
// connection setup.
package pool

import (
	"errors"
	"fmt"
	"time"

	"cloudrepl/internal/obs"
	"cloudrepl/internal/sim"
)

// ErrExhausted is returned when MaxWait elapses without a free connection.
var ErrExhausted = errors.New("pool: exhausted (wait timeout)")

// ErrClosed is returned by Borrow after Close.
var ErrClosed = errors.New("pool: closed")

// Config sizes the pool.
type Config struct {
	// MaxActive caps connections in existence (borrowed + idle). Borrow
	// blocks when the cap is reached and nothing is idle.
	MaxActive int
	// MaxIdle caps connections kept after Return; surplus is closed.
	MaxIdle int
	// MaxWait bounds how long Borrow blocks (0 = wait forever).
	MaxWait time.Duration
}

// Stats counts pool activity. The metric tag is the name obs.Flatten
// publishes a field under (after "pool.").
type Stats struct {
	Created  uint64 `metric:"created"`
	Closed   uint64 `metric:"closed"`
	Borrows  uint64 `metric:"borrows"`
	Returns  uint64 `metric:"returns"`
	Waits    uint64 `metric:"waits"` // borrows that had to block
	Timeouts uint64 `metric:"timeouts"`
}

// Pool is a generic connection pool for any connection type.
type Pool[T any] struct {
	// Tracer, when set, records a "pool" span around every Borrow (with a
	// waited attribute when the borrow had to block). Nil disables tracing.
	Tracer *obs.Tracer

	cfg     Config
	factory func() T
	closer  func(T)

	idle    []T
	active  int // total connections out or idle
	waiters *sim.Signal
	closed  bool
	stats   Stats
}

// New creates a pool. factory creates a connection; closer (optional)
// disposes one.
func New[T any](env *sim.Env, cfg Config, factory func() T, closer func(T)) *Pool[T] {
	if cfg.MaxActive <= 0 {
		panic(fmt.Sprintf("pool: MaxActive must be positive, got %d", cfg.MaxActive))
	}
	if cfg.MaxIdle < 0 || cfg.MaxIdle > cfg.MaxActive {
		cfg.MaxIdle = cfg.MaxActive
	}
	if closer == nil {
		closer = func(T) {}
	}
	return &Pool[T]{cfg: cfg, factory: factory, closer: closer,
		waiters: sim.NewSignal(env).Named("pool-waiters")}
}

// Stats returns a snapshot of the counters.
func (pl *Pool[T]) Stats() Stats { return pl.stats }

// Active returns connections currently in existence.
func (pl *Pool[T]) Active() int { return pl.active }

// Idle returns connections currently idle in the pool.
func (pl *Pool[T]) Idle() int { return len(pl.idle) }

// Borrow checks out a connection, creating one if under MaxActive, else
// blocking until a Return or until MaxWait elapses.
func (pl *Pool[T]) Borrow(p *sim.Proc) (T, error) {
	var zero T
	sp := pl.Tracer.StartSpan(p, "pool", "borrow")
	done := func(errAttr string, waited bool) {
		if waited {
			sp.SetAttr("waited", "1")
		}
		if errAttr != "" {
			sp.SetAttr("error", errAttr)
		}
		sp.End(p)
	}
	deadline := sim.Time(-1)
	if pl.cfg.MaxWait > 0 {
		deadline = p.Now() + pl.cfg.MaxWait
	}
	waited := false
	for {
		if pl.closed {
			done("closed", waited)
			return zero, ErrClosed
		}
		if n := len(pl.idle); n > 0 {
			c := pl.idle[n-1]
			pl.idle = pl.idle[:n-1]
			pl.stats.Borrows++
			done("", waited)
			return c, nil
		}
		if pl.active < pl.cfg.MaxActive {
			pl.active++
			pl.stats.Created++
			pl.stats.Borrows++
			c := pl.factory()
			done("", waited)
			return c, nil
		}
		// One blocked borrow is one wait, no matter how many wake-loop
		// races it loses before winning a connection.
		if !waited {
			waited = true
			pl.stats.Waits++
		}
		if deadline >= 0 {
			remain := deadline - p.Now()
			if remain <= 0 || !pl.waiters.WaitTimeout(p, remain) {
				pl.stats.Timeouts++
				done("exhausted", waited)
				return zero, ErrExhausted
			}
		} else {
			pl.waiters.Wait(p)
		}
	}
}

// Return checks a connection back in. Surplus beyond MaxIdle is closed.
func (pl *Pool[T]) Return(c T) {
	pl.stats.Returns++
	if pl.closed || len(pl.idle) >= pl.cfg.MaxIdle {
		pl.active--
		pl.stats.Closed++
		pl.closer(c)
		pl.waiters.Broadcast() // capacity freed
		return
	}
	pl.idle = append(pl.idle, c)
	pl.waiters.Broadcast()
}

// Discard drops a borrowed connection without reuse (e.g. after an error).
func (pl *Pool[T]) Discard(c T) {
	pl.active--
	pl.stats.Closed++
	pl.closer(c)
	pl.waiters.Broadcast()
}

// Close closes idle connections and fails future Borrows. Outstanding
// connections are closed as they are returned.
func (pl *Pool[T]) Close() {
	if pl.closed {
		return
	}
	pl.closed = true
	for _, c := range pl.idle {
		pl.active--
		pl.stats.Closed++
		pl.closer(c)
	}
	pl.idle = nil
	pl.waiters.Broadcast()
}
