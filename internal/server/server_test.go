package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/binlog"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func newTestServer(t *testing.T, seed int64) (*sim.Env, *DBServer) {
	t.Helper()
	env := sim.NewEnv(seed)
	c := cloud.New(env, cloud.Config{}) // homogeneous instances, no clock error
	inst := c.Launch("db1", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"})
	srv := New(env, "db1", inst, DefaultCostModel())
	sess := srv.Session("")
	for _, sql := range []string{
		"CREATE DATABASE app",
		"USE app",
		"CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(20))",
	} {
		if _, err := srv.ExecFree(sess, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return env, srv
}

func TestExecChargesCPU(t *testing.T) {
	env, srv := newTestServer(t, 1)
	sess := srv.Session("app")
	var elapsed sim.Time
	env.Go("client", func(p *sim.Proc) {
		if _, err := srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'x')"); err != nil {
			t.Errorf("exec: %v", err)
		}
		elapsed = p.Now()
	})
	env.Run()
	cost := srv.Cost.StatementCost(sqlengine.ExecStats{Class: sqlengine.ClassWrite, RowsAffected: 1}, false)
	if elapsed != cost {
		t.Fatalf("write took %v, want %v", elapsed, cost)
	}
	if srv.Stats().Writes != 1 {
		t.Fatalf("stats: %+v", srv.Stats())
	}
}

func TestConcurrentStatementsQueueOnCPU(t *testing.T) {
	env, srv := newTestServer(t, 1)
	var last sim.Time
	for i := 0; i < 3; i++ {
		i := i
		sess := srv.Session("app")
		env.Go("client", func(p *sim.Proc) {
			if _, err := srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i))); err != nil {
				t.Errorf("exec: %v", err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run()
	one := srv.Cost.StatementCost(sqlengine.ExecStats{Class: sqlengine.ClassWrite, RowsAffected: 1}, false)
	if last != 3*one {
		t.Fatalf("3 writes on 1 vCPU finished at %v, want %v", last, 3*one)
	}
}

func TestSlowInstanceRunsSlower(t *testing.T) {
	env := sim.NewEnv(2)
	c := cloud.New(env, cloud.Config{})
	inst := c.Launch("slow", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"})
	inst.SpeedFactor = 0.853 // a host at the paper's E5507-vs-E5430 speed
	srv := New(env, "slow", inst, DefaultCostModel())
	sess := srv.Session("")
	srv.ExecFree(sess, "CREATE DATABASE app")
	srv.ExecFree(sess, "USE app")
	srv.ExecFree(sess, "CREATE TABLE t (id BIGINT PRIMARY KEY)")
	var elapsed sim.Time
	env.Go("client", func(p *sim.Proc) {
		srv.Exec(p, sess, "INSERT INTO t (id) VALUES (1)")
		elapsed = p.Now()
	})
	env.Run()
	nominal := srv.Cost.StatementCost(sqlengine.ExecStats{Class: sqlengine.ClassWrite, RowsAffected: 1}, false)
	want := time.Duration(float64(nominal) / inst.SpeedFactor)
	if elapsed != want {
		t.Fatalf("write at speed %v took %v, want %v", inst.SpeedFactor, elapsed, want)
	}
}

func TestCommittedWritesReachBinlogWithClockTimestamp(t *testing.T) {
	env, srv := newTestServer(t, 1)
	sess := srv.Session("app")
	env.RunUntil(env.Now() + 10*time.Second) // advance the clock
	base := srv.Log.LastSeq()                // preload DDL entries
	env.Go("client", func(p *sim.Proc) {
		srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'x')")
	})
	env.Run()
	if srv.Log.LastSeq() != base+1 {
		t.Fatalf("binlog has %d entries, want %d", srv.Log.LastSeq(), base+1)
	}
	e, _ := srv.Log.At(base + 1)
	if e.Database != "app" || !strings.HasPrefix(e.SQL, "INSERT INTO t") {
		t.Fatalf("entry: %+v", e)
	}
	// No clock error configured: timestamp equals virtual now at commit
	// (commit happens at exec time, before CPU accounting).
	if e.TimestampMicros != (10 * time.Second).Microseconds() {
		t.Fatalf("timestamp %d µs, want 10s", e.TimestampMicros)
	}
}

func TestReadsDoNotReachBinlog(t *testing.T) {
	env, srv := newTestServer(t, 1)
	sess := srv.Session("app")
	base := srv.Log.LastSeq()
	env.Go("client", func(p *sim.Proc) {
		srv.Exec(p, sess, "SELECT * FROM t")
	})
	env.Run()
	if srv.Log.LastSeq() != base {
		t.Fatal("SELECT reached the binlog")
	}
	if srv.Stats().Reads != 1 {
		t.Fatalf("stats: %+v", srv.Stats())
	}
}

func TestApplyReevaluatesTimeOnLocalClock(t *testing.T) {
	env := sim.NewEnv(3)
	c := cloud.New(env, cloud.Config{})
	m := c.Launch("master", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"})
	s := c.Launch("slave", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"})
	// Skew the slave clock forward by exactly 1s.
	s.Clock.SetOffset(time.Second)
	master := New(env, "master", m, DefaultCostModel())
	slave := New(env, "slave", s, DefaultCostModel())
	for _, srv := range []*DBServer{master, slave} {
		sess := srv.Session("")
		srv.ExecFree(sess, "CREATE DATABASE hb")
		srv.ExecFree(sess, "USE hb")
		srv.ExecFree(sess, "CREATE TABLE heartbeat (id BIGINT PRIMARY KEY, ts TIMESTAMP)")
	}
	msess := master.Session("hb")
	ssess := slave.Session("hb")
	env.Go("flow", func(p *sim.Proc) {
		if _, err := master.Exec(p, msess, "INSERT INTO heartbeat (id, ts) VALUES (1, UTC_MICROS())"); err != nil {
			t.Errorf("master exec: %v", err)
			return
		}
		// Preload DDL is also in the binlog; the INSERT is the newest entry.
		e, err := master.Log.At(master.Log.LastSeq())
		if err != nil {
			t.Errorf("binlog: %v", err)
			return
		}
		if err := slave.Apply(p, ssess, e); err != nil {
			t.Errorf("apply: %v", err)
		}
	})
	env.Run()
	mset, _ := master.Session("hb").Query("SELECT ts FROM heartbeat WHERE id = 1")
	sset, _ := slave.Session("hb").Query("SELECT ts FROM heartbeat WHERE id = 1")
	mts := mset.Rows[0][0].Micros()
	sts := sset.Rows[0][0].Micros()
	// The slave committed its own local time: ~1s ahead of the master's,
	// plus the master's write service time that elapsed before apply.
	diff := sts - mts
	if diff < (time.Second).Microseconds() || diff > (2*time.Second).Microseconds() {
		t.Fatalf("slave ts - master ts = %dµs, want ≈1s (clock skew) + service", diff)
	}
}

func TestApplyCostsLessThanMasterWrite(t *testing.T) {
	cm := DefaultCostModel()
	st := sqlengine.ExecStats{Class: sqlengine.ClassWrite, RowsAffected: 1}
	w := cm.StatementCost(st, false)
	a := cm.StatementCost(st, true)
	if a >= w {
		t.Fatalf("apply cost %v not below write cost %v", a, w)
	}
	if a == 0 {
		t.Fatal("apply cost is zero")
	}
}

func TestStatementCostScalesWithRowsExamined(t *testing.T) {
	cm := DefaultCostModel()
	small := cm.StatementCost(sqlengine.ExecStats{Class: sqlengine.ClassRead, RowsExamined: 10}, false)
	big := cm.StatementCost(sqlengine.ExecStats{Class: sqlengine.ClassRead, RowsExamined: 1000}, false)
	if big <= small {
		t.Fatal("scan cost does not grow with rows examined")
	}
}

func TestUseStatementSwitchesApplyDatabase(t *testing.T) {
	env, srv := newTestServer(t, 1)
	sess := srv.Session("")
	env.Go("applier", func(p *sim.Proc) {
		err := srv.Apply(p, sess, binlog.Entry{Seq: 1, Database: "app", LoggedWrite: sqlengine.LoggedWrite{SQL: "INSERT INTO t (id, v) VALUES (9, 'via-apply')"}})
		if err != nil {
			t.Errorf("apply: %v", err)
		}
	})
	env.Run()
	set, err := srv.Session("app").Query("SELECT v FROM t WHERE id = 9")
	if err != nil || len(set.Rows) != 1 {
		t.Fatalf("applied row missing: %v %v", set, err)
	}
}

func TestDumpAndRelayWorkChargeCPU(t *testing.T) {
	env, srv := newTestServer(t, 5)
	var after sim.Time
	env.Go("threads", func(p *sim.Proc) {
		srv.DumpBatchWork(p, 1)
		srv.RelayBatchWork(p, 1)
		after = p.Now()
	})
	env.Run()
	want := srv.Cost.DumpPerEvent + srv.Cost.RelayPerEvent
	if after != want {
		t.Fatalf("dump+relay took %v, want %v", after, want)
	}
}

func TestPriorityApplyUsesHighPriorityCPU(t *testing.T) {
	env, srv := newTestServer(t, 6)
	srv.PriorityApply = true
	sess := srv.Session("app")
	// A long normal-priority job holds the CPU; queue several normal reads
	// and one priority apply — the apply must finish before the queued
	// reads despite arriving last.
	var order []string
	env.Go("holder", func(p *sim.Proc) {
		srv.Inst.Work(p, 200*time.Millisecond)
	})
	for i := 0; i < 3; i++ {
		rs := srv.Session("app")
		env.Go("reader", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			srv.Exec(p, rs, "SELECT * FROM t")
			order = append(order, "read")
		})
	}
	env.Go("applier", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // arrives after the readers queued
		srv.Apply(p, sess, binlog.Entry{Seq: 1, Database: "app", LoggedWrite: sqlengine.LoggedWrite{SQL: "INSERT INTO t (id, v) VALUES (5, 'x')"}})
		order = append(order, "apply")
	})
	env.Run()
	if len(order) != 4 || order[0] != "apply" {
		t.Fatalf("completion order %v; prioritized apply should finish first", order)
	}
}

func TestStatsCounters(t *testing.T) {
	env, srv := newTestServer(t, 7)
	sess := srv.Session("app")
	env.Go("mix", func(p *sim.Proc) {
		srv.Exec(p, sess, "SELECT * FROM t")
		srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'x')")
		srv.Apply(p, sess, binlog.Entry{Seq: 1, Database: "app", LoggedWrite: sqlengine.LoggedWrite{SQL: "INSERT INTO t (id, v) VALUES (2, 'y')"}})
	})
	env.Run()
	st := srv.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Applied != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// With group commit enabled, N concurrent autocommit writes must form few
// fsync groups and finish sooner than N serialized legacy commits, because
// the fsync share of WriteBase is paid per group instead of per statement.
func TestGroupCommitAmortizesFsync(t *testing.T) {
	const writers = 4
	run := func(window time.Duration) (sim.Time, Stats) {
		env, srv := newTestServer(t, 1)
		srv.GroupCommitWindow = window
		var last sim.Time
		for i := 0; i < writers; i++ {
			i := i
			sess := srv.Session("app")
			env.Go("w", func(p *sim.Proc) {
				if _, err := srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i))); err != nil {
					t.Errorf("exec: %v", err)
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		env.Run()
		return last, srv.Stats()
	}

	legacy, legacyStats := run(0)
	// The 1-vCPU FIFO spaces write completions by their ~54ms CPU cost, so
	// the window must exceed that for successive commits to pile onto an
	// open group.
	grouped, stats := run(60 * time.Millisecond)

	if legacyStats.GroupCommits != 0 || legacyStats.GroupedWrites != 0 {
		t.Fatalf("legacy path recorded groups: %+v", legacyStats)
	}
	if stats.GroupedWrites != writers {
		t.Fatalf("GroupedWrites = %d, want %d", stats.GroupedWrites, writers)
	}
	if stats.GroupCommits >= writers {
		t.Fatalf("GroupCommits = %d: no amortization over %d writes", stats.GroupCommits, writers)
	}
	if grouped >= legacy {
		t.Fatalf("group commit did not help: %v grouped vs %v legacy", grouped, legacy)
	}
	if srvLog := stats.Writes; srvLog != writers {
		t.Fatalf("writes = %d, want %d", srvLog, writers)
	}
}

// A single write under group commit pays window + full write cost — it must
// not lose the fsync entirely, only defer it to the group.
func TestGroupCommitSingleWriteStillFsyncs(t *testing.T) {
	env, srv := newTestServer(t, 1)
	srv.GroupCommitWindow = 5 * time.Millisecond
	sess := srv.Session("app")
	var elapsed sim.Time
	env.Go("w", func(p *sim.Proc) {
		if _, err := srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'x')"); err != nil {
			t.Errorf("exec: %v", err)
		}
		elapsed = p.Now()
	})
	env.Run()
	cost := srv.Cost.StatementCost(sqlengine.ExecStats{Class: sqlengine.ClassWrite, RowsAffected: 1}, false)
	want := cost + srv.GroupCommitWindow // CPU (cost−fsync) + window + fsync disk
	if elapsed != want {
		t.Fatalf("single grouped write took %v, want %v", elapsed, want)
	}
	if st := srv.Stats(); st.GroupCommits != 1 || st.GroupedWrites != 1 || st.MaxGroupSize != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// Statements inside an explicit transaction must bypass the group-commit
// path: their commit point is COMMIT, not the statement.
func TestGroupCommitSkipsExplicitTransactions(t *testing.T) {
	env, srv := newTestServer(t, 1)
	srv.GroupCommitWindow = 5 * time.Millisecond
	sess := srv.Session("app")
	env.Go("w", func(p *sim.Proc) {
		for _, sql := range []string{
			"BEGIN",
			"INSERT INTO t (id, v) VALUES (1, 'x')",
			"COMMIT",
		} {
			if _, err := srv.Exec(p, sess, sql); err != nil {
				t.Errorf("%s: %v", sql, err)
			}
		}
	})
	env.Run()
	if st := srv.Stats(); st.GroupCommits != 0 || st.GroupedWrites != 0 {
		t.Fatalf("transactional write went through group commit: %+v", st)
	}
}

// TestOneCommitPath: every commit — an autocommit write, a DDL, COMMIT, the
// flush a DDL makes of an open transaction — reaches the commit hook as one
// call and the binlog as that many consecutive entries under the commit's one
// timestamp. A write inside a transaction reaches neither before its COMMIT,
// nor group commit ever: only a write that commits itself takes a group.
func TestOneCommitPath(t *testing.T) {
	type commit struct {
		at     int      // the script statement that committed
		writes []string // the writes' text, in order
	}
	ins := func(id int) string { return fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'x')", id) }
	const (
		create = "CREATE TABLE u (id BIGINT NOT NULL PRIMARY KEY)"
		update = "UPDATE t SET v = 'y' WHERE (id = 1)"
	)
	cases := []struct {
		name    string
		script  []string
		commits []commit
		grouped uint64 // writes that committed through a group
	}{
		{"autocommit write", []string{ins(1)}, []commit{{0, []string{ins(1)}}}, 1},
		{"ddl", []string{create}, []commit{{0, []string{create}}}, 0},
		{"transaction", []string{"BEGIN", ins(1), update, "COMMIT"}, []commit{{3, []string{ins(1), update}}}, 0},
		{"ddl in a transaction", []string{"BEGIN", ins(1), create}, []commit{{2, []string{ins(1)}}, {2, []string{create}}}, 0},
		{"rollback", []string{"BEGIN", ins(1), "ROLLBACK", ins(2)}, []commit{{3, []string{ins(2)}}}, 1},
		{"commit with none open", []string{ins(1), "COMMIT"}, []commit{{0, []string{ins(1)}}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, srv := newTestServer(t, 1)
			srv.GroupCommitWindow = 5 * time.Millisecond
			sess := srv.Session("app")
			var got []commit
			var stamps []int64 // each commit's clock reading
			at := 0
			appendCommit := srv.Eng.OnCommit
			srv.Eng.OnCommit = func(db string, writes []sqlengine.LoggedWrite) {
				c := commit{at: at}
				for _, w := range writes {
					c.writes = append(c.writes, w.Text())
				}
				got = append(got, c)
				stamps = append(stamps, srv.Inst.Clock.NowMicros())
				appendCommit(db, writes)
			}
			from := srv.Log.LastSeq()
			env.Go("client", func(p *sim.Proc) {
				for i, sql := range tc.script {
					at = i
					if _, err := srv.Exec(p, sess, sql); err != nil {
						t.Errorf("%s: %v", sql, err)
					}
				}
			})
			env.Run()

			if !reflect.DeepEqual(got, tc.commits) {
				t.Fatalf("commit hook calls %v, want %v", got, tc.commits)
			}
			seq := from
			for i, c := range got {
				for _, text := range c.writes {
					seq++
					e, err := srv.Log.At(seq)
					if err != nil {
						t.Fatalf("commit %d: %v", i, err)
					}
					if e.SQL != text || e.Database != "app" || e.TimestampMicros != stamps[i] {
						t.Errorf("entry %d = %q in %q at %dµs, want %q in app at commit %d's %dµs",
							seq, e.SQL, e.Database, e.TimestampMicros, text, i, stamps[i])
					}
				}
			}
			if last := srv.Log.LastSeq(); last != seq {
				t.Errorf("log ends at %d, want %d: the commits' entries and nothing else", last, seq)
			}
			if st := srv.Stats(); st.GroupedWrites != tc.grouped {
				t.Errorf("%d writes took group commit, want %d", st.GroupedWrites, tc.grouped)
			}
		})
	}

	// A logged write is its prepared form: the parameterised text and a copy
	// of the arguments the caller is free to reuse, the text rendered from it.
	_, srv := newTestServer(t, 1)
	args := []sqlengine.Value{sqlengine.NewInt(80), sqlengine.NewString("hook")}
	if _, err := srv.ExecFree(srv.Session("app"), "INSERT INTO t (id, v) VALUES (?, ?)", args...); err != nil {
		t.Fatal(err)
	}
	args[0] = sqlengine.NewInt(-1)
	e, err := srv.Log.At(srv.Log.LastSeq())
	if want := "INSERT INTO t (id, v) VALUES (80, 'hook')"; err != nil || e.Stmt != "INSERT INTO t (id, v) VALUES (?, ?)" ||
		len(e.Args) != 2 || e.Args[0].Int() != 80 || e.SQL != want || e.TextLen() != len(want) {
		t.Fatalf("logged %+v (%v), want the prepared form of %q", e, err, want)
	}
}

// A batch of one must cost exactly the same as the per-event path, so an
// unconfigured pipeline cannot change baseline timing.
func TestBatchWorkOfOneMatchesPerEvent(t *testing.T) {
	env, srv := newTestServer(t, 1)
	var tBatch, tRelayBatch sim.Time
	env.Go("seq", func(p *sim.Proc) {
		start := p.Now()
		srv.DumpBatchWork(p, 1)
		tBatch = p.Now() - start
		start = p.Now()
		srv.RelayBatchWork(p, 1)
		tRelayBatch = p.Now() - start
	})
	env.Run()
	if tBatch != srv.Cost.DumpPerEvent {
		t.Fatalf("DumpBatchWork(1) = %v, DumpPerEvent = %v", tBatch, srv.Cost.DumpPerEvent)
	}
	if tRelayBatch != srv.Cost.RelayPerEvent {
		t.Fatalf("RelayBatchWork(1) = %v, RelayPerEvent = %v", tRelayBatch, srv.Cost.RelayPerEvent)
	}
}

// Batched shipping must be cheaper than per-event shipping for n>1.
func TestBatchWorkAmortizes(t *testing.T) {
	env, srv := newTestServer(t, 1)
	const n = 32
	var tBatch, tSingles sim.Time
	env.Go("seq", func(p *sim.Proc) {
		start := p.Now()
		srv.DumpBatchWork(p, n)
		tBatch = p.Now() - start
		start = p.Now()
		for i := 0; i < n; i++ {
			srv.DumpBatchWork(p, 1)
		}
		tSingles = p.Now() - start
	})
	env.Run()
	if tBatch >= tSingles/4 {
		t.Fatalf("batched dump of %d = %v, singles = %v: expected ≥4× amortization", n, tBatch, tSingles)
	}
}

// TestSessionsKeepOnePerServer: a connection's table hands back the session it
// opened on a server for as long as it holds it, one per server — past the
// ones it keeps in place too — each opened in the connection's database.
func TestSessionsKeepOnePerServer(t *testing.T) {
	env := sim.NewEnv(1)
	c := cloud.New(env, cloud.Config{})
	var tab Sessions
	var srvs []*DBServer
	for i := range len(tab.near) + 2 { // two past the table, into its slice
		name := fmt.Sprintf("db%d", i)
		srvs = append(srvs, New(env, name, c.Launch(name, cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"}), DefaultCostModel()))
	}
	opened := map[*sqlengine.Session]bool{}
	for round := range 2 {
		for i, srv := range srvs {
			sess := tab.On(srv, "app")
			if sess.DB() != "app" {
				t.Errorf("server %d: session in %q, want app", i, sess.DB())
			}
			if round == 0 && opened[sess] {
				t.Errorf("server %d: handed another server's session", i)
			}
			if round == 1 && !opened[sess] {
				t.Errorf("server %d: a second session opened", i)
			}
			opened[sess] = true
		}
	}
	if len(opened) != len(srvs) {
		t.Errorf("%d sessions for %d servers", len(opened), len(srvs))
	}
}
