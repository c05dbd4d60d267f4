package proxy

import (
	"errors"
	"testing"
	"time"

	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// TestWrongShardNotRetried: an ownership rejection is a routing verdict, not
// an infrastructure fault. The proxy must surface ErrWrongShard immediately —
// zero backend attempts, zero blind retries — so the shard client can refresh
// its map snapshot and re-route instead of burning the retry budget here.
func TestWrongShardNotRetried(t *testing.T) {
	env, px := topo(t, 31, 1, &RoundRobin{})
	checks := 0
	px.CheckOwner = func(sql string, args []sqlengine.Value) error {
		checks++
		return ErrWrongShard
	}
	conn := px.Connect("app")

	env.Go("client", func(p *sim.Proc) {
		before := p.Now()
		_, err := conn.Exec(p, "SELECT v FROM t WHERE id = ?", sqlengine.NewInt(1))
		if !errors.Is(err, ErrWrongShard) {
			t.Errorf("err = %v, want ErrWrongShard", err)
		}
		if elapsed := p.Now() - before; elapsed != 0 {
			t.Errorf("rejection took %v of simulated time; it must not sleep in backoff", elapsed)
		}
	})
	env.RunUntil(time.Second)
	env.Stop()
	env.Shutdown()

	if checks != 1 {
		t.Fatalf("CheckOwner ran %d times, want exactly 1 (no retry loop)", checks)
	}
	s := px.Stats()
	if s.WrongShard != 1 {
		t.Fatalf("WrongShard = %d, want 1", s.WrongShard)
	}
	if s.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 — ErrWrongShard must not be blindly retried", s.Retries)
	}
	if s.Errors != 0 {
		t.Fatalf("Errors = %d, want 0 — rejection happens before the attempt loop", s.Errors)
	}
}
