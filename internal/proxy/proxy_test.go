package proxy

import (
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
		// Metadata statements are read-only and safe on a replica.
		{"SHOW TABLES", true},
		{"show databases", true},
		{"DESCRIBE t", true},
		{"DESC t", true},
		{"EXPLAIN SELECT * FROM t", true},
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

func TestDownSlaveSkipped(t *testing.T) {
	env, px := topo(t, 4, 2, &RoundRobin{})
	slaves := px.master.Slaves()
	slaves[0].Srv.Inst.Terminate()
	conn := px.Connect("app")
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if _, err := conn.Exec(p, "SELECT COUNT(*) FROM t"); err != nil {
				t.Errorf("read: %v", err)
			}
		}
	})
	env.RunUntil(10 * time.Minute)
	if n := slaves[1].Srv.Stats().Reads; n != 10 {
		t.Fatalf("live slave served %d, want all 10", n)
	}
	env.Stop()
	env.Shutdown()
}

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

func TestBackendDyingMidFlightReturnsError(t *testing.T) {
	env, px := topo(t, 11, 1, &RoundRobin{})
	sl := px.master.Slaves()[0]
	conn := px.Connect("app")
	var err error
	env.Go("client", func(p *sim.Proc) {
		_, err = conn.Exec(p, "SELECT COUNT(*) FROM t")
	})
	// Kill the slave while the read is in transit (the one-way latency is
	// 16ms; fire at 5ms).
	env.Schedule(5*time.Millisecond, func() { sl.Srv.Inst.Terminate() })
	env.RunUntil(time.Minute)
	if err == nil {
		t.Fatal("read to a dying backend succeeded silently")
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
	px.Retry.failoverOnMasterDown = true
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
	// unapplied anywhere when the master dies.
	for _, sl := range px.master.Slaves() {
		srv := sl.Srv
		for h := 0; h < 2; h++ {
			env.Go("hog", func(p *sim.Proc) {
				for p.Now() < 5*time.Second {
					srv.Inst.Work(p, 50*time.Millisecond)
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
