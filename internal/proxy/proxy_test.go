package proxy

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// topo builds master + N same-zone slaves and a proxy colocated with them.
func topo(t *testing.T, seed int64, nSlaves int, balancer Balancer) (*sim.Env, *Proxy) {
	t.Helper()
	env := sim.NewEnv(seed)
	lat := cloud.DefaultLatencies()
	lat.JitterSigma = 0
	c := cloud.New(env, cloud.Config{})
	net := cloud.NewNetwork(env, lat) // jitter-free, in place of the provider's own
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
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
	mSrv := server.New(env, "master", c.Launch("master", cloud.Small, place), server.DefaultCostModel())
	preload(mSrv)
	m := repl.NewMaster(env, mSrv, net, repl.Async)
	for i := 0; i < nSlaves; i++ {
		name := fmt.Sprintf("slave%d", i+1)
		sSrv := server.New(env, name, c.Launch(name, cloud.Small, place), server.DefaultCostModel())
		preload(sSrv)
		m.Attach(repl.NewSlave(env, sSrv), repl.Executed{Low: mSrv.Log.LastSeq()})
	}
	return env, New(env, net, m, place, balancer)
}

func TestIsRead(t *testing.T) {
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT * FROM t", true},
		{"  select 1", true},
		{"INSERT INTO t VALUES (1)", false},
		{"UPDATE t SET v = 1", false},
		{"DELETE FROM t", false},
		{"BEGIN", false},
		{"", false},
		// Leading comments must not hide the verb (Connector/J strips them).
		{"/* hint */ SELECT 1", true},
		{"/* c1 */ /* c2 */\n SELECT 1", true},
		{"-- comment\nSELECT 1", true},
		{"# comment\nselect 1", true},
		{"/* comment */ INSERT INTO t VALUES (1)", false},
		{"-- only a comment", false},
		{"/* unterminated SELECT", false},
		// The engine speaks no metadata statement: they take the master
		// path like any other verb that is not SELECT.
		{"SHOW TABLES", false},
		{"show databases", false},
		{"DESCRIBE t", false},
		{"DESC t", false},
		{"EXPLAIN SELECT * FROM t", false},
		// Prefix matching must stop at the word boundary.
		{"SELECTION IS NOT A VERB", false},
		{"SHOWING OFF", false},
	}
	for _, tc := range cases {
		if got := IsRead(tc.sql); got != tc.want {
			t.Errorf("IsRead(%q) = %v", tc.sql, got)
		}
	}
}

func TestWritesGoToMasterReadsToSlaves(t *testing.T) {
	env, px := topo(t, 1, 2, &RoundRobin{})
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		res, err := conn.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')")
		if err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if !res.OnMaster {
			t.Error("write not routed to master")
		}
		p.Sleep(5 * time.Second) // let replication deliver
		r2, err := conn.Exec(p, "SELECT v FROM t WHERE id = 1")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if r2.OnMaster {
			t.Error("read routed to master despite live slaves")
		}
		if len(r2.Result.Set.Rows) != 1 {
			t.Errorf("read missed replicated row: %v", r2.Result.Set.Rows)
		}
	})
	env.RunUntil(time.Minute)
	st := px.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.MasterFallbacks != 0 {
		t.Fatalf("stats: %+v", st)
	}
	env.Stop()
	env.Shutdown()
}

func TestRoundRobinDistributesEvenly(t *testing.T) {
	env, px := topo(t, 2, 3, &RoundRobin{})
	conn := px.Connect("app")
	counts := map[string]int{}
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			if _, err := conn.Exec(p, "SELECT COUNT(*) FROM t"); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		for _, sl := range px.master.Slaves() {
			counts[sl.Srv.Name] = int(sl.Srv.Stats().Reads)
		}
	})
	env.RunUntil(10 * time.Minute)
	for name, n := range counts {
		if n != 10 {
			t.Fatalf("%s served %d reads, want 10 each: %v", name, n, counts)
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestNoSlavesFallsBackToMaster(t *testing.T) {
	env, px := topo(t, 3, 0, &RoundRobin{})
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !res.OnMaster {
			t.Error("read with no slaves must hit the master")
		}
	})
	env.Run()
	if px.Stats().MasterFallbacks != 1 {
		t.Fatalf("stats: %+v", px.Stats())
	}
}

// TestCrashedSlaveBenchedAndReadmitted: the proxy learns of a crash only
// from its statements. A crashed slave is still picked until it fails a
// read, is benched after evictAfter failures — each read retried onto the
// live slave — and is readmitted once readmitAfter has passed.
func TestCrashedSlaveBenchedAndReadmitted(t *testing.T) {
	env, px := topo(t, 4, 2, &RoundRobin{})
	slaves := px.master.Slaves()
	crashed, live := slaves[0], slaves[1]
	crashed.Srv.Inst.Terminate()
	conn := px.Connect("app")
	read := func(p *sim.Proc) {
		if _, err := conn.Exec(p, "SELECT COUNT(*) FROM t"); err != nil {
			t.Errorf("read: %v", err)
		}
	}
	env.Go("client", func(p *sim.Proc) {
		read(p)
		if st := px.Stats(); st.Retries != 1 || st.SlaveEvictions != 0 {
			t.Errorf("first read after the crash: %+v; want it tried on the crashed slave, then retried", st)
		}
		for i := 1; i < 10; i++ {
			read(p)
		}
		if st := px.Stats(); st.Retries != evictAfter || st.SlaveEvictions != 1 || st.SlaveReadmissions != 0 {
			t.Errorf("after 10 reads: %+v; want %d retries and 1 eviction", st, evictAfter)
		}
		if n := live.Srv.Stats().Reads; n != 10 {
			t.Errorf("live slave served %d, want all 10", n)
		}
		crashed.Srv.Inst.Restart()
		p.Sleep(readmitAfter)
		for i := 0; i < 4; i++ {
			read(p)
		}
		if st := px.Stats(); st.SlaveReadmissions != 1 || st.SlaveEvictions != 1 || st.Retries != evictAfter {
			t.Errorf("after the readmission window: %+v; want 1 readmission and no new error", st)
		}
		if n := crashed.Srv.Stats().Reads; n == 0 {
			t.Error("readmitted slave served no reads")
		}
	})
	env.RunUntil(10 * time.Minute)
	env.Stop()
	env.Shutdown()
	if st := px.Stats(); st.Errors != 0 || st.Failovers != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMasterDownWriteFails: with no failover hook a dead master fails a write
// once its errors have benched it: evictAfter attempts reach the dead server,
// and the last one finds no backend.
func TestMasterDownWriteFails(t *testing.T) {
	env, px := topo(t, 5, 1, &RoundRobin{})
	px.master.Srv.Inst.Terminate()
	conn := px.Connect("app")
	var err error
	env.Go("client", func(p *sim.Proc) {
		_, err = conn.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')")
	})
	env.RunUntil(time.Minute)
	if err != ErrNoBackend {
		t.Fatalf("err = %v, want ErrNoBackend", err)
	}
	if st := px.Stats(); st.Retries != maxAttempts-1 || st.Errors != 1 || st.Timeouts != 0 || st.Failovers != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if h := px.health[px.master.Srv]; h == nil || !h.evicted || h.consecErrs != evictAfter {
		t.Fatalf("master health %+v, want benched after %d errors", h, evictAfter)
	}
	env.Stop()
	env.Shutdown()
}

func TestLeastLagPrefersFreshSlave(t *testing.T) {
	env, px := topo(t, 6, 2, LeastLag{})
	slaves := px.master.Slaves()
	// Stop slave 0's applier so it falls behind.
	slaves[0].Stop()
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			conn.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i)))
		}
		p.Sleep(10 * time.Second)
		for i := 0; i < 6; i++ {
			if _, err := conn.Exec(p, "SELECT COUNT(*) FROM t"); err != nil {
				t.Errorf("read: %v", err)
			}
		}
	})
	env.RunUntil(10 * time.Minute)
	if n := slaves[1].Srv.Stats().Reads; n != 6 {
		t.Fatalf("fresh slave served %d of 6 reads", n)
	}
	env.Stop()
	env.Shutdown()
}

// TestStalenessBoundedFallsBackToMaster: under the Bounded tier a slave
// further behind than MaxStaleEvents serves nothing; the read goes to the
// master and sees every write.
func TestStalenessBoundedFallsBackToMaster(t *testing.T) {
	env, px := topo(t, 7, 1, &RoundRobin{})
	px.Consistency, px.MaxStaleEvents = Bounded, 2
	slaves := px.master.Slaves()
	slaves[0].Stop() // slave will lag forever
	conn := px.Connect("app")
	var fellBack bool
	env.Go("client", func(p *sim.Proc) {
		for i := 1; i <= 3; i++ { // one more event than the bound admits
			conn.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i)))
		}
		p.Sleep(5 * time.Second)
		res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		fellBack = res.OnMaster
		if res.Result.Set.Rows[0][0].Int() != 3 {
			t.Error("bounded-tier read returned stale data")
		}
	})
	env.RunUntil(time.Minute)
	if !fellBack {
		t.Fatal("read should have fallen back to the master")
	}
	if st := px.Stats(); st.MasterFallbacks != 1 || st.BoundedReads != 1 {
		t.Fatalf("stats: %+v", st)
	}
	env.Stop()
	env.Shutdown()
}

func TestLeastConnBalancesInflight(t *testing.T) {
	env, px := topo(t, 8, 2, LeastConn{})
	// Two concurrent clients: least-conn must not send both to one slave.
	done := map[string]int{}
	for i := 0; i < 2; i++ {
		conn := px.Connect("app")
		env.Go("client", func(p *sim.Proc) {
			res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			_ = res
		})
	}
	env.Go("check", func(p *sim.Proc) {
		p.Sleep(time.Minute)
		for _, sl := range px.master.Slaves() {
			done[sl.Srv.Name] = int(sl.Srv.Stats().Reads)
		}
	})
	env.RunUntil(2 * time.Minute)
	for name, n := range done {
		if n != 1 {
			t.Fatalf("%s served %d reads, want 1 each: %v", name, n, done)
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestNetworkRoundTripInLatency(t *testing.T) {
	// Client in us-west-1a, backends in the same zone: every statement
	// pays ≥ 2×16ms of network.
	env, px := topo(t, 9, 1, &RoundRobin{})
	conn := px.Connect("app")
	var lat time.Duration
	env.Go("client", func(p *sim.Proc) {
		res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		lat = res.Latency
	})
	env.RunUntil(time.Minute)
	if lat < 32*time.Millisecond {
		t.Fatalf("client latency %v below the network floor", lat)
	}
	env.Stop()
	env.Shutdown()
}

// TestMonotonicReadViolations reproduces the consumer-observed consistency
// phenomenon of the authors' earlier CIDR work (cited as the paper's
// motivation): with round-robin reads over unevenly-lagged slaves, a
// client can read an older value after a newer one; the Session tier — this
// connection is the only writer, so its own newest write is the newest
// write — eliminates the regressions.
func TestMonotonicReadViolations(t *testing.T) {
	run := func(tier Consistency) int {
		env, px := topo(t, 42, 2, &RoundRobin{})
		px.Consistency = tier
		// Pin one slave's CPU with competing work so its applier lags far
		// behind the other slave's.
		slow := px.master.Slaves()[1].Srv
		for h := 0; h < 3; h++ {
			env.Go("hog", func(p *sim.Proc) {
				for p.Now() < 3*time.Minute {
					slow.Inst.Work(p, 200*time.Millisecond)
				}
			})
		}
		conn := px.Connect("app")
		violations := 0
		env.Go("client", func(p *sim.Proc) {
			last := int64(-1)
			for i := 0; p.Now() < 3*time.Minute; i++ {
				conn.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i)))
				res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
				if err != nil {
					continue
				}
				n := res.Result.Set.Rows[0][0].Int()
				if n < last {
					violations++
				}
				last = n
			}
		})
		env.RunUntil(4 * time.Minute)
		env.Stop()
		env.Shutdown()
		return violations
	}
	if run(Eventual) == 0 {
		t.Fatal("round-robin over unevenly lagged slaves showed no monotonic-read violations")
	}
	if n := run(Session); n != 0 {
		t.Fatalf("session tier still produced %d violations", n)
	}
}

// TestBackendDyingMidFlightReturnsError: a slave that dies while the
// request is on the wire fails the attempt with server.ErrServerDown — the
// server's own answer, which the proxy counts toward the slave's bench.
func TestBackendDyingMidFlightReturnsError(t *testing.T) {
	env, px := topo(t, 11, 1, &RoundRobin{})
	sl := px.master.Slaves()[0]
	conn := px.Connect("app")
	var err error
	env.Go("client", func(p *sim.Proc) {
		_, err = conn.execOn(p, sl, "SELECT COUNT(*) FROM t", nil, new(sqlengine.Reply))
	})
	// Kill the slave while the read is in transit (the one-way latency is
	// 16ms; fire at 5ms).
	env.Schedule(5*time.Millisecond, func() { sl.Srv.Inst.Terminate() })
	env.RunUntil(time.Minute)
	if !errors.Is(err, server.ErrServerDown) {
		t.Fatalf("err = %v, want server.ErrServerDown", err)
	}
	if h := px.health[sl.Srv]; h == nil || h.consecErrs != 1 {
		t.Fatalf("slave health %+v, want a streak of 1", h)
	}
	env.Stop()
	env.Shutdown()
}

// TestReadYourWritesSessionConsistency: with RYW enabled a connection's
// read immediately after its own write never misses that write, even when
// slaves lag; other connections' reads still balance freely.
func TestReadYourWritesSessionConsistency(t *testing.T) {
	env, px := topo(t, 12, 2, &RoundRobin{})
	px.Consistency = Session
	// Freeze both appliers so every slave lags behind the writes.
	for _, sl := range px.master.Slaves() {
		sl.Stop()
	}
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, err := conn.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i))); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if got := res.Result.Set.Rows[0][0].Int(); got != int64(i+1) {
				t.Errorf("read-your-writes violated: count %d after %d writes", got, i+1)
			}
			if !res.OnMaster {
				t.Error("lagging slaves served a post-write read")
			}
		}
	})
	env.RunUntil(time.Minute)
	if px.Stats().MasterFallbacks != 5 {
		t.Fatalf("fallbacks: %d, want 5", px.Stats().MasterFallbacks)
	}
	env.Stop()
	env.Shutdown()
}

// TestReadYourWritesAfterCommit: a transaction's writes reach the log only
// at COMMIT, so it is the COMMIT that moves the session's token and waits for
// the synchronization model. With both slaves frozen, the Session-tier read
// after BEGIN, INSERT, COMMIT must be served by the master and see the row.
// Under Sync, the transaction must commit, and its COMMIT must not return
// before every slave has applied it.
func TestReadYourWritesAfterCommit(t *testing.T) {
	env, px := topo(t, 12, 2, &RoundRobin{})
	px.Consistency = Session
	for _, sl := range px.master.Slaves() {
		sl.Stop()
	}
	conn := px.Connect("app")
	txn := func(p *sim.Proc, id int64) bool {
		for _, sql := range []string{"BEGIN", "INSERT INTO t (id, v) VALUES (?, 'x')", "COMMIT"} {
			var args []sqlengine.Value
			if sql[0] == 'I' {
				args = []sqlengine.Value{sqlengine.NewInt(id)}
			}
			if _, err := conn.Exec(p, sql, args...); err != nil {
				t.Errorf("%s: %v", sql, err)
				return false
			}
		}
		return true
	}
	env.Go("client", func(p *sim.Proc) {
		if !txn(p, 1) {
			return
		}
		if tok, last := conn.token, px.master.Srv.Log.LastSeq(); tok.Seq != last {
			t.Errorf("token at seq %d after COMMIT, the commit is seq %d", tok.Seq, last)
		}
		res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if got := res.Result.Set.Rows[0][0].Int(); got != 1 || !res.OnMaster {
			t.Errorf("read after COMMIT: count %d, on master %v; want 1, true", got, res.OnMaster)
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()

	env, px = topo(t, 12, 2, &RoundRobin{})
	px.master.Mode = repl.Sync
	conn = px.Connect("app")
	committed := false
	env.Go("client", func(p *sim.Proc) {
		if committed = txn(p, 1); !committed {
			return
		}
		for _, sl := range px.master.Slaves() {
			if sl.AppliedSeq() < px.master.Srv.Log.LastSeq() {
				t.Errorf("COMMIT returned under Sync before %s applied it", sl.Srv.Name)
			}
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
	if !committed {
		t.Error("the transaction never committed under Sync")
	}
}

// TestReadYourWritesReleasesAfterCatchUp: once a slave applies the write,
// the same connection's reads return to the slaves.
func TestReadYourWritesReleasesAfterCatchUp(t *testing.T) {
	env, px := topo(t, 13, 2, &RoundRobin{})
	px.Consistency = Session
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		conn.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')")
		p.Sleep(5 * time.Second) // replication lands
		res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if res.OnMaster {
			t.Error("read stuck on master after slaves caught up")
		}
		if res.Result.Set.Rows[0][0].Int() != 1 {
			t.Error("caught-up slave missing the write")
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

// TestFreshConnectionUnaffectedByRYW: a connection that never wrote keeps
// reading from slaves even when they lag (session, not global, consistency).
func TestFreshConnectionUnaffectedByRYW(t *testing.T) {
	env, px := topo(t, 14, 1, &RoundRobin{})
	px.Consistency = Session
	px.master.Slaves()[0].Stop()
	writer := px.Connect("app")
	reader := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		writer.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')")
		res, err := reader.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if res.OnMaster {
			t.Error("non-writing connection was dragged to the master")
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

// TestRYWTokenSurvivesFailover kills the master between a connection's
// write and its read. The promoted master runs under a new epoch, so the
// old watermark — a sequence minted on the dead master's timeline — must
// not be compared against slaves that merely reached the same *number* on
// the new timeline: the read goes to the master, and the token is re-minted
// there. The scalar watermark this replaces served such reads from a slave.
func TestRYWTokenSurvivesFailover(t *testing.T) {
	env, px := topo(t, 21, 2, &RoundRobin{})
	px.Consistency = Session
	px.OnMasterFailure = func(p *sim.Proc) (*repl.Master, error) {
		// Promote the most-applied live slave under epoch+1 and re-attach
		// the rest at their applied positions — cluster.Failover's flow.
		old := px.master
		var best *repl.Slave
		for _, sl := range old.Slaves() {
			if sl.Srv.Up() && (best == nil || sl.AppliedSeq() > best.AppliedSeq()) {
				best = sl
			}
		}
		var rest []*repl.Slave
		for _, sl := range old.Slaves() {
			if sl != best {
				rest = append(rest, sl)
			}
			old.Detach(sl)
		}
		nm := repl.NewMaster(env, best.Srv, old.Net, repl.Async)
		nm.Epoch = old.Epoch + 1
		for _, o := range rest {
			nm.Attach(repl.NewSlave(env, o.Srv), repl.Executed{Low: o.AppliedSeq()})
		}
		return nm, nil
	}
	// Starve both slaves' appliers so the connection's writes are still
	// unapplied anywhere when the master dies and while the proxy's retries
	// find it dead: an applier waits up to two 1 s hog turns for each of its
	// turns, and the retries before the failover take under one second.
	for _, sl := range px.master.Slaves() {
		srv := sl.Srv
		for h := 0; h < 2; h++ {
			env.Go("hog", func(p *sim.Proc) {
				for p.Now() < 5*time.Second {
					srv.Inst.Work(p, time.Second)
				}
			})
		}
	}
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		for i := 1; i <= 5; i++ {
			if _, err := conn.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i))); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		px.master.Srv.Inst.Terminate()
		// No slave holds the watermark, so the read falls back to the
		// master, finds it dead, and promotes — landing on a new epoch the
		// token was not minted under.
		res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("post-failover read: %v", err)
			return
		}
		if !res.OnMaster {
			t.Error("post-failover read served by a slave on an old-epoch token")
		}
		if got := px.Stats().Failovers; got != 1 {
			t.Errorf("Failovers = %d, want 1", got)
		}
		if got := px.Stats().EpochFallbacks; got != 1 {
			t.Errorf("EpochFallbacks = %d, want 1", got)
		}
		// The fallback re-minted the token under the new epoch: once the
		// surviving slave catches up, reads are slave-eligible again rather
		// than pinned to the master.
		p.Sleep(10 * time.Second)
		res, err = conn.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("second read: %v", err)
			return
		}
		if res.OnMaster {
			t.Error("re-minted token still pins reads to the master")
		}
		if got := px.Stats().EpochFallbacks; got != 1 {
			t.Errorf("EpochFallbacks after re-mint = %d, want 1", got)
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

// TestStalenessBoundedZeroValueServesSlaves: a Bounded tier whose
// MaxStaleEvents is left at zero must not mean "zero events behind", which
// under any write load disqualifies every slave and silently degenerates to
// master-only reads. Unset means the default bound: a mildly lagging slave
// keeps serving.
func TestStalenessBoundedZeroValueServesSlaves(t *testing.T) {
	env, px := topo(t, 33, 1, &RoundRobin{})
	px.Consistency = Bounded
	slow := px.master.Slaves()[0].Srv
	for h := 0; h < 2; h++ {
		env.Go("hog", func(p *sim.Proc) {
			for p.Now() < 30*time.Second {
				slow.Inst.Work(p, 50*time.Millisecond)
			}
		})
	}
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		for i := 1; i <= 10; i++ {
			if _, err := conn.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i))); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		// The hogged slave is a few events behind — within the default
		// bound, far from caught up.
		if got := px.master.Slaves()[0].EventsBehindMaster(); got == 0 {
			t.Fatal("test setup: slave not lagging")
		}
		res, err := conn.Exec(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if res.OnMaster {
			t.Error("Bounded tier with an unset bound degenerated to a master read")
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

// TestStatsAddCoversEveryField fills two Stats with 1 in every numeric field,
// adds them, and fails on any field that is not 2 — a counter added to the
// struct and forgotten in Add would silently vanish from every sharded
// handle's totals.
func TestStatsAddCoversEveryField(t *testing.T) {
	var a, b Stats
	for _, v := range []reflect.Value{reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() != reflect.Uint64 {
				t.Fatalf("Stats.%s is %s: teach this test (and Add) the new kind", v.Type().Field(i).Name, v.Field(i).Kind())
			}
			v.Field(i).SetUint(1)
		}
	}
	a.Add(b)
	v := reflect.ValueOf(a)
	for i := 0; i < v.NumField(); i++ {
		if got := v.Field(i).Uint(); got != 2 {
			t.Errorf("Stats.Add drops %s: 1 + 1 = %d", v.Type().Field(i).Name, got)
		}
	}
}

// TestDrainTimesOut: with a budget shorter than a read and reads in flight,
// Drain still returns at its deadline and reports the reads it abandoned.
func TestDrainTimesOut(t *testing.T) {
	env, px := topo(t, 22, 1, &RoundRobin{})
	sl := px.master.Slaves()[0]
	for r := 0; r < 4; r++ {
		conn := px.Connect("app")
		env.Go("reader", func(p *sim.Proc) {
			for p.Now() < 40*time.Second {
				conn.Exec(p, "SELECT v FROM t WHERE id = 1")
				p.Sleep(5 * time.Millisecond)
			}
		})
	}
	abandoned := -1
	var took time.Duration
	env.Go("operator", func(p *sim.Proc) {
		p.Sleep(10 * time.Second)
		start := p.Now()
		abandoned = px.Drain(p, sl, 10*time.Millisecond)
		took = p.Now() - start
	})
	env.RunUntil(sim.Time(time.Minute))
	if abandoned <= 0 {
		t.Fatalf("Drain with a 10ms budget under load reported %d abandoned reads, want some", abandoned)
	}
	if took > 20*time.Millisecond {
		t.Fatalf("Drain took %v past its 10ms budget", took)
	}
	if !px.Quarantined(sl) {
		t.Error("drained slave is not quarantined")
	}
	env.Stop()
	env.Shutdown()
}

// TestWarmReadAllocatesItsReply: a routed read costs its caller one object,
// the Reply Exec answers in. Its values and row headers are carved from
// chunks the backend's plan keeps, and routing, the round trip and the
// server's queue allocate nothing once warm — for a point read and for a
// top-10 read alike.
func TestWarmReadAllocatesItsReply(t *testing.T) {
	env, px := topo(t, 3, 2, &RoundRobin{})
	conn := px.Connect("app")
	point, one := "SELECT v FROM t WHERE id = ?", []sqlengine.Value{sqlengine.NewInt(7)}
	top := "SELECT id, v FROM t ORDER BY v DESC LIMIT 10"
	done := false
	env.Go("client", func(p *sim.Proc) {
		for i := 1; i <= 40; i++ {
			if _, err := conn.Exec(p, "INSERT INTO t (id, v) VALUES (?, ?)",
				sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprint("v", i%13))); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		p.Sleep(5 * time.Second) // let replication deliver
		for _, tc := range []struct {
			sql  string
			args []sqlengine.Value
			rows int
		}{{point, one, 1}, {top, nil, 10}} {
			read := func() {
				res, err := conn.Exec(p, tc.sql, tc.args...)
				if err != nil {
					t.Errorf("%s: %v", tc.sql, err)
				} else if n := len(res.Result.Set.Rows); n != tc.rows {
					t.Errorf("%s: %d rows, want %d", tc.sql, n, tc.rows)
				}
			}
			for range 4 { // every slave's plan built and its first chunk taken
				read()
			}
			if allocs := testing.AllocsPerRun(100, read); allocs != 1 {
				t.Errorf("%s: a warm routed read allocates %.0f objects, want 1 (its Reply)", tc.sql, allocs)
			}
		}
		done = true
	})
	env.RunUntil(time.Hour)
	if !done {
		t.Error("the client did not finish")
	}
	env.Stop()
	env.Shutdown()
}

// TestFreshConnAllocatesItsReplies: a connection keeps its sessions in a
// table of its own, and every session is carved from its engine's slab, so a
// fresh connection's first statement on each server of its cell — a write on
// the master and a read on each slave — costs each statement its Reply, and
// nothing per server it reaches: with two slaves, as geo_light, read_heavy and
// each shard_write_heavy cell run, and with four, as master_bound runs. A
// sixth server is past the table's place and costs the one slice its session
// is kept in. The connection itself does not escape here, so it lives on the
// stack; the warm-up grows every slab to its full chunk, so what is left of
// their growth rounds away.
func TestFreshConnAllocatesItsReplies(t *testing.T) {
	for _, tc := range []struct{ slaves, spill int }{{2, 0}, {4, 0}, {5, 1}} {
		servers := 1 + tc.slaves
		want := float64(servers + tc.spill)
		env, px := topo(t, 3, tc.slaves, &RoundRobin{})
		update, read := "UPDATE t SET v = ? WHERE id = ?", "SELECT v FROM t WHERE id = ?"
		args := []sqlengine.Value{sqlengine.NewString("x"), sqlengine.NewInt(7)}
		done := false
		env.Go("client", func(p *sim.Proc) {
			warm := px.Connect("app")
			if _, err := warm.Exec(p, "INSERT INTO t (id, v) VALUES (7, 'v')"); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(5 * time.Second) // let replication deliver
			fresh := func() {
				conn := px.Connect("app")
				if _, err := conn.Exec(p, update, args...); err != nil {
					t.Error(err)
				}
				for range tc.slaves { // round robin: one read on each slave
					if res, err := conn.Exec(p, read, args[1:]...); err != nil {
						t.Error(err)
					} else if len(res.Result.Set.Rows) != 1 {
						t.Errorf("%s: %d rows, want 1", read, len(res.Result.Set.Rows))
					}
				}
			}
			for range 300 { // every server's plans built and its slabs' chunks grown to full size
				fresh()
			}
			if allocs := testing.AllocsPerRun(100, fresh); allocs > want {
				t.Errorf("%d servers: a fresh connection's first statement on each allocates %.0f objects, want at most %.0f (%d Replies and %d spilled tables)",
					servers, allocs, want, servers, tc.spill)
			}
			done = true
		})
		env.RunUntil(time.Hour)
		if !done {
			t.Errorf("%d servers: the client did not finish", servers)
		}
		env.Stop()
		env.Shutdown()
	}
}
