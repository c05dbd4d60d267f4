package proxy

import (
	"errors"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
)

// topoAt builds master + slaves at explicit placements (client colocated
// with the master) so tests can partition individual paths.
func topoAt(t *testing.T, seed int64, masterPlace cloud.Placement, slavePlaces []cloud.Placement, balancer Balancer) (*sim.Env, *cloud.Network, *Proxy) {
	t.Helper()
	env := sim.NewEnv(seed)
	lat := cloud.DefaultLatencies()
	lat.JitterSigma = 0
	c := cloud.New(env, cloud.Config{})
	net := cloud.NewNetwork(env, lat) // jitter-free, in place of the provider's own
	preload := func(srv *server.DBServer) {
		sess := srv.Session("")
		for _, sql := range []string{
			"CREATE DATABASE app",
			"CREATE TABLE app.t (id BIGINT PRIMARY KEY, v VARCHAR(20))",
		} {
			if _, err := srv.ExecFree(sess, sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	mSrv := server.New(env, "master", c.Launch("master", cloud.Small, masterPlace), server.DefaultCostModel())
	preload(mSrv)
	m := repl.NewMaster(env, mSrv, net, repl.Async)
	for i, pl := range slavePlaces {
		name := "slave" + string(rune('1'+i))
		sSrv := server.New(env, name, c.Launch(name, cloud.Small, pl), server.DefaultCostModel())
		preload(sSrv)
		m.Attach(repl.NewSlave(env, sSrv), repl.Executed{Low: mSrv.Log.LastSeq()})
	}
	return env, net, New(env, net, m, masterPlace, balancer)
}

// TestTieBreakSpreadsReads: with every slave equally caught up, least-lag
// must not hot-spot the first slave — ties break randomly.
func TestTieBreakSpreadsReads(t *testing.T) {
	env, px := topo(t, 21, 2, LeastLag{})
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			if _, err := conn.Exec(p, "SELECT COUNT(*) FROM t"); err != nil {
				t.Errorf("read: %v", err)
			}
		}
	})
	env.RunUntil(10 * time.Minute)
	env.Stop()
	env.Shutdown()
	for _, sl := range px.Master().Slaves() {
		if n := sl.Srv.Stats().Reads; n < 10 {
			t.Fatalf("%s served only %d of 40 tied reads — tie-break not spreading", sl.Srv.Name, n)
		}
	}
}

// TestLeastConnTieBreakSpreads: same property for least-conn on an idle
// cluster (every in-flight count is zero).
func TestLeastConnTieBreakSpreads(t *testing.T) {
	env, px := topo(t, 22, 2, LeastConn{})
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			if _, err := conn.Exec(p, "SELECT COUNT(*) FROM t"); err != nil {
				t.Errorf("read: %v", err)
			}
		}
	})
	env.RunUntil(10 * time.Minute)
	env.Stop()
	env.Shutdown()
	for _, sl := range px.Master().Slaves() {
		if n := sl.Srv.Stats().Reads; n < 10 {
			t.Fatalf("%s served only %d of 40 tied reads", sl.Srv.Name, n)
		}
	}
}

// TestScoredPicksAllocateNothing: least-conn and least-lag collect their tied
// best slaves in the pick context's own scratch, so routing a read through
// either costs no allocation once that scratch has grown to the slave count.
func TestScoredPicksAllocateNothing(t *testing.T) {
	env, px := topo(t, 24, 3, nil)
	defer env.Shutdown()
	ctx := &PickContext{
		Master:   px.Master(),
		Slaves:   px.Master().Slaves(),
		Inflight: func(*repl.Slave) int { return 0 },
		Rng:      env.Rand(),
	}
	for _, b := range []Balancer{LeastConn{}, LeastLag{}} {
		seen := map[*repl.Slave]bool{}
		for i := 0; i < 64; i++ {
			seen[b.Pick(ctx)] = true
		}
		if len(seen) != 3 || seen[nil] {
			t.Errorf("%s: 64 three-way ties reached %d backends; want all 3 slaves", b.Name(), len(seen))
		}
		if allocs := testing.AllocsPerRun(100, func() { b.Pick(ctx) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations per pick; want 0", b.Name(), allocs)
		}
	}
}

// TestRetryMasksMidFlightCrash: the only slave dies while a read is on the
// wire; with a retry policy the statement is re-attempted and lands on the
// master instead of surfacing the error.
func TestRetryMasksMidFlightCrash(t *testing.T) {
	env, px := topo(t, 23, 1, &RoundRobin{})
	px.Retry = RetryPolicy{maxAttempts: 3, baseBackoff: 50 * time.Millisecond, maxBackoff: time.Second}
	sl := px.Master().Slaves()[0]
	conn := px.Connect("app")
	var res *ExecResult
	var err error
	env.Go("client", func(p *sim.Proc) {
		res, err = conn.Exec(p, "SELECT COUNT(*) FROM t")
	})
	env.Schedule(5*time.Millisecond, func() { sl.Srv.Inst.Terminate() })
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
	if err != nil {
		t.Fatalf("retried read still failed: %v", err)
	}
	if !res.OnMaster {
		t.Fatal("retry should have fallen back to the master")
	}
	st := px.Stats()
	if st.Retries == 0 {
		t.Fatalf("stats show no retry: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("masked failure still counted as an error: %+v", st)
	}
}

// TestZeroPolicyKeepsLegacySingleAttempt: the zero-value RetryPolicy must
// not retry, so existing callers see the first error unchanged.
func TestZeroPolicyKeepsLegacySingleAttempt(t *testing.T) {
	env, px := topo(t, 24, 1, &RoundRobin{})
	sl := px.Master().Slaves()[0]
	conn := px.Connect("app")
	var err error
	env.Go("client", func(p *sim.Proc) {
		_, err = conn.Exec(p, "SELECT COUNT(*) FROM t")
	})
	env.Schedule(5*time.Millisecond, func() { sl.Srv.Inst.Terminate() })
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
	if err == nil {
		t.Fatal("zero policy retried a failed statement")
	}
	if st := px.Stats(); st.Retries != 0 || st.Errors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSlaveEvictionAndReadmission: a partition makes one slave time out
// repeatedly; the proxy benches it, serves reads from the survivor, and
// readmits it after the window once the partition heals.
func TestSlaveEvictionAndReadmission(t *testing.T) {
	zoneA := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	zoneB := cloud.Placement{Region: cloud.USWest1, Zone: "b"}
	env, net, px := topoAt(t, 25, zoneA, []cloud.Placement{zoneA, zoneB}, &RoundRobin{})
	px.Retry = RetryPolicy{
		maxAttempts:      2,
		baseBackoff:      10 * time.Millisecond,
		maxBackoff:       time.Second,
		statementTimeout: time.Second,
		evictAfter:       2,
		readmitAfter:     5 * time.Second,
	}
	net.Partition(zoneA, zoneB)

	conn := px.Connect("app")
	var errsBeforeHeal int
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			if _, err := conn.Exec(p, "SELECT COUNT(*) FROM t"); err != nil {
				errsBeforeHeal++
			}
		}
		// Heal and sit out the readmission window; the benched slave must
		// return to rotation.
		net.Heal(zoneA, zoneB)
		p.Sleep(6 * time.Second)
		before := px.Master().Slaves()[1].Srv.Stats().Reads
		for i := 0; i < 8; i++ {
			if _, err := conn.Exec(p, "SELECT COUNT(*) FROM t"); err != nil {
				t.Errorf("post-heal read: %v", err)
			}
		}
		if after := px.Master().Slaves()[1].Srv.Stats().Reads; after == before {
			t.Error("readmitted slave served no reads after the heal")
		}
	})
	env.RunUntil(10 * time.Minute)
	env.Stop()
	env.Shutdown()

	st := px.Stats()
	if errsBeforeHeal != 0 {
		t.Fatalf("%d reads failed despite retry to the healthy slave", errsBeforeHeal)
	}
	if st.Timeouts < 2 {
		t.Fatalf("timeouts = %d, want ≥ 2 (the eviction threshold)", st.Timeouts)
	}
	if st.SlaveEvictions != 1 {
		t.Fatalf("evictions = %d, want exactly 1", st.SlaveEvictions)
	}
	if st.SlaveReadmissions != 1 {
		t.Fatalf("readmissions = %d, want exactly 1", st.SlaveReadmissions)
	}
}

// TestStatementTimeoutOnPartitionedMaster: a write toward an unreachable
// master fails with ErrStatementTimeout after the configured bound instead
// of hanging forever.
func TestStatementTimeoutOnPartitionedMaster(t *testing.T) {
	zoneA := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	zoneB := cloud.Placement{Region: cloud.USWest1, Zone: "b"}
	// Master in zone a; client (proxy) in zone b; no slaves.
	env, net, px := topoAt(t, 26, zoneA, nil, &RoundRobin{})
	pxB := New(env, net, px.Master(), zoneB, &RoundRobin{})
	pxB.Retry = RetryPolicy{maxAttempts: 2, baseBackoff: 10 * time.Millisecond, maxBackoff: time.Second, statementTimeout: time.Second}
	net.Partition(zoneA, zoneB)

	conn := pxB.Connect("app")
	var err error
	var took sim.Time
	env.Go("client", func(p *sim.Proc) {
		t0 := p.Now()
		_, err = conn.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')")
		took = p.Now() - t0
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()

	if !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("err = %v, want ErrStatementTimeout", err)
	}
	if took < 2*time.Second || took > 5*time.Second {
		t.Fatalf("two bounded attempts took %v", took)
	}
	st := pxB.Stats()
	if st.Timeouts != 2 || st.Retries != 1 || st.Errors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFailoverHookPromotesOnMasterDown: a dead master triggers the
// OnMasterFailure hook instead of a permanent ErrNoBackend; the proxy
// re-points itself and the write lands on the promoted server.
func TestFailoverHookPromotesOnMasterDown(t *testing.T) {
	env, net, px := topoAt(t, 27,
		cloud.Placement{Region: cloud.USWest1, Zone: "a"},
		[]cloud.Placement{{Region: cloud.USWest1, Zone: "a"}}, &RoundRobin{})
	sl := px.Master().Slaves()[0]
	old := px.Master()
	hookCalls := 0
	px.Retry = RetryPolicy{failoverOnMasterDown: true}
	px.OnMasterFailure = func(p *sim.Proc) (*repl.Master, error) {
		hookCalls++
		old.Detach(sl)
		return repl.NewMaster(env, sl.Srv, net, repl.Async), nil
	}
	px.Master().Srv.Inst.Terminate()

	conn := px.Connect("app")
	var res *ExecResult
	var err error
	env.Go("client", func(p *sim.Proc) {
		res, err = conn.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')")
		// A second write must reuse the promoted master, not re-promote.
		if _, err2 := conn.Exec(p, "INSERT INTO t (id, v) VALUES (2, 'y')"); err2 != nil {
			t.Errorf("post-failover write: %v", err2)
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()

	if err != nil {
		t.Fatalf("write during failover: %v", err)
	}
	if !res.OnMaster {
		t.Fatal("write not on the (promoted) master")
	}
	if px.Master().Srv != sl.Srv {
		t.Fatal("proxy still pointing at the dead master")
	}
	if hookCalls != 1 {
		t.Fatalf("hook called %d times, want once", hookCalls)
	}
	if st := px.Stats(); st.Failovers != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestNoFailoverWithoutPolicy: with failoverOnMasterDown unset the hook is
// never consulted and the legacy ErrNoBackend surfaces.
func TestNoFailoverWithoutPolicy(t *testing.T) {
	env, px := topo(t, 28, 1, &RoundRobin{})
	px.OnMasterFailure = func(p *sim.Proc) (*repl.Master, error) {
		t.Error("hook invoked despite failoverOnMasterDown=false")
		return nil, nil
	}
	px.Master().Srv.Inst.Terminate()
	conn := px.Connect("app")
	var err error
	env.Go("client", func(p *sim.Proc) {
		_, err = conn.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')")
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
	if !errors.Is(err, ErrNoBackend) {
		t.Fatalf("err = %v, want ErrNoBackend", err)
	}
}

// TestReadYourWritesAllStaleFallsBackToMaster: with every slave crashed
// (not merely lagging), a RYW connection's post-write read still succeeds
// via the master fallback.
func TestReadYourWritesAllStaleFallsBackToMaster(t *testing.T) {
	env, px := topo(t, 29, 2, &RoundRobin{})
	px.Consistency = Session
	for _, sl := range px.Master().Slaves() {
		sl.Srv.Inst.Terminate()
	}
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		if _, err := conn.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')"); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !res.OnMaster {
			t.Error("read with every slave dead must hit the master")
		}
		if res.Result.Set.Rows[0][0].Int() != 1 {
			t.Error("master fallback missed the session's own write")
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

// TestBackoffGrowsAndCaps: the backoff schedule doubles from baseBackoff
// and respects maxBackoff; jitter stays within ±jitterFrac.
func TestBackoffGrowsAndCaps(t *testing.T) {
	env := sim.NewEnv(30)
	rng := env.Rand()
	rp := RetryPolicy{baseBackoff: 100 * time.Millisecond, maxBackoff: 400 * time.Millisecond}
	for n, want := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		4: 400 * time.Millisecond, // capped
	} {
		if got := rp.backoff(n, rng); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", n, got, want)
		}
	}
	jit := RetryPolicy{baseBackoff: 100 * time.Millisecond, maxBackoff: time.Second, jitterFrac: 0.5}
	for i := 0; i < 100; i++ {
		d := jit.backoff(1, rng)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside ±50%% of 100ms", d)
		}
	}
	env.Shutdown()
}
