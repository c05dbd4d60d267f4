package proxy

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
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
	for _, sl := range px.master.Slaves() {
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
	for _, sl := range px.master.Slaves() {
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
		Master:   px.master,
		Slaves:   px.master.Slaves(),
		Inflight: func(*repl.Slave) int { return 0 },
		Rng:      env.Rand(),
	}
	for _, b := range []Balancer{LeastConn{}, LeastLag{}} {
		seen := map[*repl.Slave]bool{}
		for i := 0; i < 64; i++ {
			seen[b.Pick(ctx)] = true
		}
		if len(seen) != 3 || seen[nil] {
			t.Errorf("%T: 64 three-way ties reached %d backends; want all 3 slaves", b, len(seen))
		}
		if allocs := testing.AllocsPerRun(100, func() { b.Pick(ctx) }); allocs != 0 {
			t.Errorf("%T: %.0f allocations per pick; want 0", b, allocs)
		}
	}
}

// TestRetryMasksMidFlightCrash: the only slave dies while a read is on the
// wire; the statement is re-attempted until the slave is benched and lands on
// the master instead of surfacing the error.
func TestRetryMasksMidFlightCrash(t *testing.T) {
	env, px := topo(t, 23, 1, &RoundRobin{})
	sl := px.master.Slaves()[0]
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
	if st.Retries != evictAfter || st.SlaveEvictions != 1 {
		t.Fatalf("stats: %+v; want %d retries (one per error until the bench) and 1 eviction", st, evictAfter)
	}
	if st.Errors != 0 {
		t.Fatalf("masked failure still counted as an error: %+v", st)
	}
}

// TestSlaveEvictionAndReadmission: a partition makes one slave time out
// repeatedly; the proxy benches it, serves reads from the survivor, and
// readmits it after the window once the partition heals.
func TestSlaveEvictionAndReadmission(t *testing.T) {
	zoneA := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	zoneB := cloud.Placement{Region: cloud.USWest1, Zone: "b"}
	env, net, px := topoAt(t, 25, zoneA, []cloud.Placement{zoneA, zoneB}, &RoundRobin{})
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
		p.Sleep(readmitAfter + time.Second)
		before := px.master.Slaves()[1].Srv.Stats().Reads
		for i := 0; i < 8; i++ {
			if _, err := conn.Exec(p, "SELECT COUNT(*) FROM t"); err != nil {
				t.Errorf("post-heal read: %v", err)
			}
		}
		if after := px.master.Slaves()[1].Srv.Stats().Reads; after == before {
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
	if st.Timeouts != evictAfter {
		t.Fatalf("timeouts = %d, want %d (the eviction threshold)", st.Timeouts, evictAfter)
	}
	if st.SlaveEvictions != 1 {
		t.Fatalf("evictions = %d, want exactly 1", st.SlaveEvictions)
	}
	if st.SlaveReadmissions != 1 {
		t.Fatalf("readmissions = %d, want exactly 1", st.SlaveReadmissions)
	}
}

// TestStatementTimeoutOnPartitionedMaster: a write toward an unreachable
// master does not hang: each attempt gives up at the statement timeout, the
// master is benched after evictAfter of them, and with no failover hook the
// last attempt finds no backend.
func TestStatementTimeoutOnPartitionedMaster(t *testing.T) {
	zoneA := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	zoneB := cloud.Placement{Region: cloud.USWest1, Zone: "b"}
	// Master in zone a; client (proxy) in zone b; no slaves.
	env, net, px := topoAt(t, 26, zoneA, nil, &RoundRobin{})
	pxB := New(env, net, px.master, zoneB, &RoundRobin{})
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

	if !errors.Is(err, ErrNoBackend) {
		t.Fatalf("err = %v, want ErrNoBackend (master benched, no hook)", err)
	}
	// evictAfter timed-out attempts plus the backoffs before the next ones,
	// each at most maxBackoff.
	if lo, hi := evictAfter*statementTimeout, evictAfter*statementTimeout+(maxAttempts-1)*maxBackoff; took < lo || took > hi {
		t.Fatalf("%d bounded attempts took %v, want within [%v, %v]", maxAttempts, took, lo, hi)
	}
	st := pxB.Stats()
	if st.Timeouts != evictAfter || st.Retries != maxAttempts-1 || st.Errors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFailoverHookPromotesOnMasterDown: a dead master triggers the
// OnMasterFailure hook once the write's errors have benched it, never
// before; the proxy re-points itself and the write lands on the promoted
// server.
func TestFailoverHookPromotesOnMasterDown(t *testing.T) {
	env, net, px := topoAt(t, 27,
		cloud.Placement{Region: cloud.USWest1, Zone: "a"},
		[]cloud.Placement{{Region: cloud.USWest1, Zone: "a"}}, &RoundRobin{})
	sl := px.master.Slaves()[0]
	old := px.master
	hookCalls := 0
	px.OnMasterFailure = func(p *sim.Proc) (*repl.Master, error) {
		hookCalls++
		if h := px.health[old.Srv]; h == nil || !h.evicted || h.consecErrs != evictAfter {
			t.Errorf("hook called before %d master errors benched the master: %+v", evictAfter, h)
		}
		old.Detach(sl)
		return repl.NewMaster(env, sl.Srv, net, repl.Async), nil
	}
	px.master.Srv.Inst.Terminate()

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
	if px.master.Srv != sl.Srv {
		t.Fatal("proxy still pointing at the dead master")
	}
	if hookCalls != 1 {
		t.Fatalf("hook called %d times, want once", hookCalls)
	}
	if st := px.Stats(); st.Failovers != 1 || st.Retries != evictAfter || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestReadYourWritesAllStaleFallsBackToMaster: with every slave crashed
// (not merely lagging), a RYW connection's post-write read still succeeds
// via the master fallback.
func TestReadYourWritesAllStaleFallsBackToMaster(t *testing.T) {
	env, px := topo(t, 29, 2, &RoundRobin{})
	px.Consistency = Session
	for _, sl := range px.master.Slaves() {
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
// and stops at maxBackoff; jitter keeps each delay within ±jitterFrac of its
// nominal value.
func TestBackoffGrowsAndCaps(t *testing.T) {
	env := sim.NewEnv(30)
	rng := env.Rand()
	for n, nominal := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second, // capped
	} {
		lo := time.Duration(float64(nominal) * (1 - jitterFrac))
		hi := time.Duration(float64(nominal) * (1 + jitterFrac))
		for i := 0; i < 100; i++ {
			if d := backoff(n+1, rng); d < lo || d > hi {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", n+1, d, lo, hi)
			}
		}
	}
	env.Shutdown()
}

// TestProxyNeverReadsLiveness pins the design: the proxy learns that a
// backend is down only from what its statements return. No non-test file of
// the package may call a method named Up or AwaitUp — the simulator's ground
// truth about an instance, which a real client cannot see.
func TestProxyNeverReadsLiveness(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Up" || sel.Sel.Name == "AwaitUp") {
				t.Errorf("%s: proxy calls %s: liveness must come from statement errors", fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no non-test files found")
	}
}

// TestAnswerClearsErrorStreak: the bench needs evictAfter errors in a row.
// Any answer from the backend — a result or an SQL error — ends the streak,
// so errors split by an answer never bench it.
func TestAnswerClearsErrorStreak(t *testing.T) {
	env, px := topo(t, 32, 1, &RoundRobin{})
	sl := px.master.Slaves()[0]
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		attempt := func(sql string) error {
			_, err := conn.execOn(p, sl, sql, nil, new(sqlengine.Reply))
			return err
		}
		for _, answer := range []string{"SELECT COUNT(*) FROM t", "SELECT nope FROM t"} {
			sl.Srv.Inst.Terminate()
			for i := 1; i < evictAfter; i++ {
				if err := attempt("SELECT COUNT(*) FROM t"); !errors.Is(err, server.ErrServerDown) {
					t.Errorf("attempt on the dead slave: err = %v", err)
					return
				}
			}
			sl.Srv.Inst.Restart()
			if err := attempt(answer); retryable(err) {
				t.Errorf("%s on the restarted slave: %v", answer, err)
				return
			}
			if h := px.health[sl.Srv]; h.consecErrs != 0 || h.evicted {
				t.Errorf("after %q answered: %+v, want the streak cleared", answer, h)
				return
			}
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
	if st := px.Stats(); st.SlaveEvictions != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLateErrorFromOldMasterIsForgotten: a statement still on the wire to the
// old master when another client's errors promote a replica fails after the
// failover. The old master is no backend of the proxy any more, so its error
// starts no streak: no health entry is made for a server the proxy will
// never route to again.
func TestLateErrorFromOldMasterIsForgotten(t *testing.T) {
	zoneA := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	zoneB := cloud.Placement{Region: cloud.USWest1, Zone: "b"}
	// Master in zone b, its slave and the clients in zone a, the zones cut
	// apart: every attempt on the master runs to the statement timeout.
	env, net, px0 := topoAt(t, 28, zoneB, []cloud.Placement{zoneA}, &RoundRobin{})
	px := New(env, net, px0.master, zoneA, &RoundRobin{})
	old := px.master
	sl := old.Slaves()[0]
	var timeoutsAtFailover uint64
	px.OnMasterFailure = func(p *sim.Proc) (*repl.Master, error) {
		timeoutsAtFailover = px.Stats().Timeouts
		old.Detach(sl)
		return repl.NewMaster(env, sl.Srv, net, repl.Async), nil
	}
	net.Partition(zoneA, zoneB)

	errs := make([]error, 2)
	for i := range errs {
		conn := px.Connect("app")
		env.Go("client", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * statementTimeout / 2)
			_, errs[i] = conn.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i+1)))
		})
	}
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := px.Stats()
	if st.Failovers != 1 || timeoutsAtFailover != evictAfter || st.Timeouts != evictAfter+1 {
		t.Fatalf("%d failovers, %d timeouts at the failover and %d in all; want 1, %d and %d: one old-master error after the failover",
			st.Failovers, timeoutsAtFailover, st.Timeouts, evictAfter, evictAfter+1)
	}
	if h := px.health[old.Srv]; h != nil {
		t.Fatalf("the old master's late error left a health entry %+v", *h)
	}
	if st.SlaveEvictions != 0 {
		t.Fatalf("%d slave evictions; want 0", st.SlaveEvictions)
	}
}
