package repl

import (
	"fmt"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// rig is a master + N slaves test topology with a preloaded schema.
type rig struct {
	env    *sim.Env
	cloud  *cloud.Cloud
	master *Master
	slaves []*Slave
}

func newRig(t *testing.T, seed int64, nSlaves int, mode Mode, slavePlace cloud.Placement) *rig {
	t.Helper()
	env := sim.NewEnv(seed)
	c := cloud.New(env, cloud.Config{}) // deterministic: homogeneous, perfect clocks
	masterPlace := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	mInst := c.Launch("master", cloud.Small, masterPlace)
	mSrv := server.New(env, "master", mInst, server.DefaultCostModel())
	m := NewMaster(env, mSrv, c.Network(), mode)

	preload := func(srv *server.DBServer) {
		sess := srv.Session("")
		for _, sql := range []string{
			"CREATE DATABASE app",
			"USE app",
			"CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(40))",
		} {
			if _, err := srv.ExecFree(sess, sql); err != nil {
				t.Fatalf("preload %s: %v", sql, err)
			}
		}
	}
	preload(mSrv)

	r := &rig{env: env, cloud: c, master: m}
	for i := 0; i < nSlaves; i++ {
		sInst := c.Launch(fmt.Sprintf("slave%d", i+1), cloud.Small, slavePlace)
		sSrv := server.New(env, fmt.Sprintf("slave%d", i+1), sInst, server.DefaultCostModel())
		preload(sSrv)
		sl := NewSlave(env, sSrv)
		m.Attach(sl, mSrv.Log.LastSeq()) // fully synchronized start
		r.slaves = append(r.slaves, sl)
	}
	return r
}

func sameZone() cloud.Placement { return cloud.Placement{Region: cloud.USWest1, Zone: "a"} }
func diffRegion() cloud.Placement {
	return cloud.Placement{Region: cloud.EUWest1, Zone: "a"}
}

func (r *rig) write(t *testing.T, id int, v string) {
	t.Helper()
	sess := r.master.Srv.Session("app")
	r.env.Go("writer", func(p *sim.Proc) {
		if _, err := r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (?, ?)",
			sqlengine.NewInt(int64(id)), sqlengine.NewString(v)); err != nil {
			t.Errorf("write: %v", err)
		}
	})
}

func (r *rig) slaveCount(t *testing.T, sl *Slave) int64 {
	t.Helper()
	set, err := sl.Srv.Session("app").Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	return set.Rows[0][0].Int()
}

func TestAsyncReplicationDeliversAllWrites(t *testing.T) {
	r := newRig(t, 1, 3, Async, sameZone())
	for i := 0; i < 20; i++ {
		r.write(t, i, "v")
	}
	r.env.RunUntil(time.Minute)
	for i, sl := range r.slaves {
		if n := r.slaveCount(t, sl); n != 20 {
			t.Fatalf("slave %d has %d rows, want 20", i, n)
		}
		if sl.ApplyErrors() != 0 {
			t.Fatalf("slave %d apply errors: %d", i, sl.ApplyErrors())
		}
	}
	r.env.Stop()
	r.env.Shutdown()
}

func TestReplicationPreservesStatementOrder(t *testing.T) {
	r := newRig(t, 2, 1, Async, sameZone())
	sess := r.master.Srv.Session("app")
	r.env.Go("writer", func(p *sim.Proc) {
		r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'a')")
		r.master.Srv.Exec(p, sess, "UPDATE t SET v = 'b' WHERE id = 1")
		r.master.Srv.Exec(p, sess, "UPDATE t SET v = CONCAT(v, 'c') WHERE id = 1")
	})
	r.env.RunUntil(time.Minute)
	set, err := r.slaves[0].Srv.Session("app").Query("SELECT v FROM t WHERE id = 1")
	if err != nil || len(set.Rows) != 1 {
		t.Fatalf("slave row: %v %v", set, err)
	}
	if got := set.Rows[0][0].Str(); got != "bc" {
		t.Fatalf("slave value %q: statements reordered or lost", got)
	}
	r.env.Shutdown()
}

func TestReplicationDelayIncludesNetworkLatency(t *testing.T) {
	// Same-zone and cross-region slaves receive the same write; the
	// cross-region slave applies it ≈157ms later (173ms vs 16ms one-way).
	env := sim.NewEnv(3)
	lat := cloud.DefaultLatencies()
	lat.JitterSigma = 0
	c := cloud.New(env, cloud.Config{})
	net := cloud.NewNetwork(env, lat) // jitter-free, in place of the provider's own
	mSrv := server.New(env, "master", c.Launch("m", cloud.Small, sameZone()), server.DefaultCostModel())
	m := NewMaster(env, mSrv, net, Async)
	var slaves []*Slave
	for i, pl := range []cloud.Placement{sameZone(), diffRegion()} {
		srv := server.New(env, fmt.Sprintf("s%d", i), c.Launch(fmt.Sprintf("s%d", i), cloud.Small, pl), server.DefaultCostModel())
		for _, sql := range []string{"CREATE DATABASE app", "CREATE TABLE app.t (id BIGINT PRIMARY KEY)"} {
			if _, err := srv.ExecFree(srv.Session(""), sql); err != nil {
				t.Fatal(err)
			}
		}
		sl := NewSlave(env, srv)
		slaves = append(slaves, sl)
	}
	for _, sql := range []string{"CREATE DATABASE app", "CREATE TABLE app.t (id BIGINT PRIMARY KEY)"} {
		if _, err := mSrv.ExecFree(mSrv.Session(""), sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, sl := range slaves {
		m.Attach(sl, mSrv.Log.LastSeq())
	}
	sess := mSrv.Session("app")
	env.Go("writer", func(p *sim.Proc) {
		mSrv.Exec(p, sess, "INSERT INTO t (id) VALUES (1)")
	})
	var appliedAt [2]sim.Time
	inserted := mSrv.Log.LastSeq() + 1
	for i, sl := range slaves {
		i, sl := i, sl
		env.Go("watch", func(p *sim.Proc) {
			for sl.AppliedSeq() < inserted {
				p.Sleep(time.Millisecond)
			}
			appliedAt[i] = p.Now()
		})
	}
	env.RunUntil(5 * time.Second)
	near, far := appliedAt[0], appliedAt[1]
	if near == 0 || far == 0 {
		t.Fatal("writes not applied")
	}
	gap := far - near
	want := 173*time.Millisecond - 16*time.Millisecond
	if gap < want-5*time.Millisecond || gap > want+20*time.Millisecond {
		t.Fatalf("cross-region apply gap %v, want ≈%v", gap, want)
	}
	env.Shutdown()
}

func TestSingleApplierSerializesBehindReads(t *testing.T) {
	// Saturate the slave CPU with read work; the relay backlog must grow
	// because the single SQL thread competes for the same core.
	r := newRig(t, 4, 1, Async, sameZone())
	sl := r.slaves[0]
	// Several concurrent readers keep the slave's FIFO CPU queue full, so
	// the single SQL thread waits behind a queue of reads for every apply.
	for i := 0; i < 5; i++ {
		readSess := sl.Srv.Session("app")
		r.env.Go("readhog", func(p *sim.Proc) {
			for p.Now() < 30*time.Second {
				sl.Srv.Exec(p, readSess, "SELECT COUNT(*) FROM t")
			}
		})
	}
	wSess := r.master.Srv.Session("app")
	r.env.Go("writer", func(p *sim.Proc) {
		for i := 0; p.Now() < 20*time.Second; i++ {
			r.master.Srv.Exec(p, wSess, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i)))
			p.Sleep(10 * time.Millisecond)
		}
	})
	r.env.RunUntil(15 * time.Second)
	behindUnderLoad := sl.EventsBehindMaster()
	r.env.RunUntil(2 * time.Minute) // reads stop at 30s; slave catches up
	if behindUnderLoad < 3 {
		t.Fatalf("slave only %d events behind under read saturation; applier contention not modeled", behindUnderLoad)
	}
	if sl.EventsBehindMaster() != 0 {
		t.Fatalf("slave still %d behind after load stopped", sl.EventsBehindMaster())
	}
	r.env.Stop()
	r.env.Shutdown()
}

func TestSyncModeWaitsForAllSlaves(t *testing.T) {
	r := newRig(t, 5, 2, Sync, diffRegion())
	sess := r.master.Srv.Session("app")
	var commitDone sim.Time
	r.env.Go("writer", func(p *sim.Proc) {
		res, err := r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'x')")
		if err != nil {
			t.Errorf("exec: %v", err)
			return
		}
		_ = res
		if !r.master.WaitCommitted(p, r.master.Srv.Log.LastSeq()) {
			t.Error("sync wait failed")
		}
		commitDone = p.Now()
	})
	r.env.RunUntil(time.Minute)
	// Sync over a 173ms one-way link: commit ≥ 2×173ms plus service times.
	if commitDone < 346*time.Millisecond {
		t.Fatalf("sync commit returned at %v, faster than a cross-region round trip", commitDone)
	}
	for _, sl := range r.slaves {
		if n := r.slaveCount(t, sl); n != 1 {
			t.Fatal("sync commit returned before slave applied")
		}
	}
	r.env.Stop()
	r.env.Shutdown()
}

func TestSemiSyncWaitsForFirstReceipt(t *testing.T) {
	r := newRig(t, 6, 2, SemiSync, diffRegion())
	sess := r.master.Srv.Session("app")
	var done sim.Time
	var okAck bool
	r.env.Go("writer", func(p *sim.Proc) {
		r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'x')")
		okAck = r.master.WaitCommitted(p, r.master.Srv.Log.LastSeq())
		done = p.Now()
	})
	r.env.RunUntil(time.Minute)
	if !okAck {
		t.Fatal("semi-sync ack not received")
	}
	if done < 346*time.Millisecond {
		t.Fatalf("semi-sync returned at %v, faster than the ack round trip", done)
	}
	r.env.Stop()
	r.env.Shutdown()
}

func TestSemiSyncTimeoutDegradesToAsync(t *testing.T) {
	r := newRig(t, 7, 1, SemiSync, diffRegion())
	r.master.SemiSyncTimeout = 50 * time.Millisecond // below the 173ms one-way latency
	sess := r.master.Srv.Session("app")
	var okAck bool
	var done sim.Time
	r.env.Go("writer", func(p *sim.Proc) {
		r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'x')")
		okAck = r.master.WaitCommitted(p, r.master.Srv.Log.LastSeq())
		done = p.Now()
	})
	r.env.RunUntil(time.Minute)
	if okAck {
		t.Fatal("expected semi-sync timeout degradation")
	}
	if done > time.Second {
		t.Fatalf("degradation took %v, should time out at ≈50ms after the write", done)
	}
	r.env.Stop()
	r.env.Shutdown()
}

func TestAsyncCommitDoesNotWait(t *testing.T) {
	r := newRig(t, 8, 2, Async, diffRegion())
	sess := r.master.Srv.Session("app")
	var done sim.Time
	r.env.Go("writer", func(p *sim.Proc) {
		r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'x')")
		if !r.master.WaitCommitted(p, r.master.Srv.Log.LastSeq()) {
			t.Error("async wait must trivially succeed")
		}
		done = p.Now()
	})
	r.env.RunUntil(time.Minute)
	if done > 200*time.Millisecond {
		t.Fatalf("async commit waited %v", done)
	}
	r.env.Stop()
	r.env.Shutdown()
}

func TestDetachStopsReplication(t *testing.T) {
	r := newRig(t, 9, 2, Async, sameZone())
	r.write(t, 1, "before")
	r.env.RunUntil(10 * time.Second)
	victim := r.slaves[0]
	r.master.Detach(victim)
	if len(r.master.Slaves()) != 1 {
		t.Fatalf("slaves after detach: %d", len(r.master.Slaves()))
	}
	r.write(t, 2, "after")
	r.env.RunUntil(30 * time.Second)
	if n := r.slaveCount(t, victim); n != 1 {
		t.Fatalf("detached slave has %d rows, want 1 (only pre-detach write)", n)
	}
	if n := r.slaveCount(t, r.slaves[1]); n != 2 {
		t.Fatalf("remaining slave has %d rows, want 2", n)
	}
	r.env.Stop()
	r.env.Shutdown()
}

func TestLateAttachingSlaveCatchesUp(t *testing.T) {
	r := newRig(t, 10, 1, Async, sameZone())
	for i := 0; i < 5; i++ {
		r.write(t, i, "early")
	}
	r.env.RunUntil(10 * time.Second)
	// New slave starts from position 0: replays the entire binlog,
	// including the master's preload DDL, on an empty server.
	sInst := r.cloud.Launch("late", cloud.Small, sameZone())
	sSrv := server.New(r.env, "late", sInst, server.DefaultCostModel())
	late := NewSlave(r.env, sSrv)
	r.master.Attach(late, 0)
	r.env.RunUntil(time.Minute)
	set, err := sSrv.Session("app").Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("late slave: %v", err)
	}
	if n := set.Rows[0][0].Int(); n != 5 {
		t.Fatalf("late slave has %d rows, want 5", n)
	}
	if late.ApplyErrors() != 0 {
		t.Fatalf("late slave apply errors: %d", late.ApplyErrors())
	}
	r.env.Stop()
	r.env.Shutdown()
}

func TestEventsBehindMaster(t *testing.T) {
	r := newRig(t, 11, 1, Async, sameZone())
	if r.slaves[0].EventsBehindMaster() != 0 {
		t.Fatal("fresh slave reports lag")
	}
	r.write(t, 1, "x")
	// Before running the simulation, the binlog has the entry but the
	// write process hasn't even executed: run a tiny slice.
	r.env.RunUntil(100 * time.Millisecond)
	r.env.RunUntil(time.Minute)
	if r.slaves[0].EventsBehindMaster() != 0 {
		t.Fatal("slave still behind after quiesce")
	}
	r.env.Stop()
	r.env.Shutdown()
}

// TestReplicationConvergenceProperty is the core statement-based
// replication invariant: for a random mix of inserts, updates and deletes
// on the master, every slave's deterministic column state equals the
// master's after quiesce. (Timestamp columns evaluated via UTC_MICROS are
// intentionally excluded: statement-based re-execution commits each
// replica's local time — that is the paper's measurement mechanism, not a
// divergence bug.)
func TestReplicationConvergenceProperty(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		r := newRig(t, seed, 2, Async, sameZone())
		sess := r.master.Srv.Session("app")
		r.env.Go("chaos", func(p *sim.Proc) {
			rng := p.Rand()
			for i := 0; i < 150; i++ {
				k := rng.Intn(40)
				switch rng.Intn(4) {
				case 0, 1:
					r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (?, ?)",
						sqlengine.NewInt(int64(k)), sqlengine.NewString(fmt.Sprintf("v%d", i)))
				case 2:
					r.master.Srv.Exec(p, sess, "UPDATE t SET v = CONCAT(v, '+') WHERE id = ?",
						sqlengine.NewInt(int64(k)))
				default:
					r.master.Srv.Exec(p, sess, "DELETE FROM t WHERE id = ?",
						sqlengine.NewInt(int64(k)))
				}
				p.Sleep(sim.Exp(rng, 300*time.Millisecond))
			}
		})
		r.env.RunUntil(5 * time.Minute)

		dump := func(srv interface {
			Session(string) *sqlengine.Session
		}) string {
			set, err := srv.Session("app").Query("SELECT id, v FROM t ORDER BY id")
			if err != nil {
				t.Fatal(err)
			}
			out := ""
			for _, row := range set.Rows {
				out += fmt.Sprintf("%v=%v;", row[0], row[1])
			}
			return out
		}
		want := dump(r.master.Srv)
		for i, sl := range r.slaves {
			if got := dump(sl.Srv); got != want {
				t.Fatalf("seed %d slave %d diverged:\n master: %s\n slave:  %s", seed, i, want, got)
			}
			if sl.ApplyErrors() != 0 {
				// Duplicate-key errors from racing inserts replicate as
				// no-ops; they must be identical failures, not divergence.
				t.Logf("seed %d slave %d apply errors: %d", seed, i, sl.ApplyErrors())
			}
		}
		r.env.Stop()
		r.env.Shutdown()
	}
}

// TestSlaveRestartReattachesAtPosition simulates a replica crash: its
// replication threads die with the relay backlog, and on restart a new
// Slave wrapper re-attaches at the last applied position, replaying only
// what it missed.
func TestSlaveRestartReattachesAtPosition(t *testing.T) {
	r := newRig(t, 12, 1, Async, sameZone())
	victim := r.slaves[0]
	for i := 0; i < 5; i++ {
		r.write(t, i, "before")
	}
	r.env.RunUntil(10 * time.Second)
	if victim.AppliedSeq() == 0 {
		t.Fatal("nothing applied before crash")
	}
	crashPos := victim.AppliedSeq()
	r.master.Detach(victim) // crash: threads stop, relay lost

	for i := 10; i < 15; i++ {
		r.write(t, i, "while-down")
	}
	r.env.RunUntil(20 * time.Second)

	// Restart: same server state, new replication threads from crashPos.
	revived := NewSlave(r.env, victim.Srv)
	r.master.Attach(revived, crashPos)
	for i := 20; i < 23; i++ {
		r.write(t, i, "after")
	}
	r.env.RunUntil(time.Minute)
	if n := r.slaveCount(t, revived); n != 13 {
		t.Fatalf("revived slave has %d rows, want 13 (5+5+3)", n)
	}
	if revived.ApplyErrors() != 0 {
		t.Fatalf("apply errors after restart: %d", revived.ApplyErrors())
	}
	r.env.Stop()
	r.env.Shutdown()
}

// TestTransactionReplicatesAtomicallyInOrder: statements buffered inside
// BEGIN/COMMIT reach the binlog only at commit, in execution order, and a
// rolled-back transaction never replicates.
func TestTransactionReplicatesAtomicallyInOrder(t *testing.T) {
	r := newRig(t, 13, 1, Async, sameZone())
	sess := r.master.Srv.Session("app")
	r.env.Go("writer", func(p *sim.Proc) {
		exec := func(sql string) {
			if _, err := r.master.Srv.Exec(p, sess, sql); err != nil {
				t.Errorf("%s: %v", sql, err)
			}
		}
		exec("BEGIN")
		exec("INSERT INTO t (id, v) VALUES (1, 'a')")
		exec("UPDATE t SET v = CONCAT(v, 'b') WHERE id = 1")
		exec("COMMIT")
		exec("BEGIN")
		exec("INSERT INTO t (id, v) VALUES (2, 'doomed')")
		exec("ROLLBACK")
	})
	r.env.RunUntil(time.Minute)
	sl := r.slaves[0]
	set, err := sl.Srv.Session("app").Query("SELECT id, v FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 1 {
		t.Fatalf("slave rows: %v (rolled-back txn replicated?)", set.Rows)
	}
	if set.Rows[0][1].Str() != "ab" {
		t.Fatalf("slave value %q, want committed txn in order", set.Rows[0][1].Str())
	}
	r.env.Stop()
	r.env.Shutdown()
}

// TestCascadingReplication: because applied statements land in the slave's
// own binlog (log-slave-updates semantics), a slave can serve as a relay
// master for downstream replicas — offloading dump work from the primary.
func TestCascadingReplication(t *testing.T) {
	r := newRig(t, 14, 1, Async, sameZone())
	relay := r.slaves[0]

	// Hang a second tier off the relay slave's server.
	leafInst := r.cloud.Launch("leaf", cloud.Small, sameZone())
	leafSrv := server.New(r.env, "leaf", leafInst, server.DefaultCostModel())
	sess := leafSrv.Session("")
	for _, sql := range []string{
		"CREATE DATABASE app",
		"CREATE TABLE app.t (id BIGINT PRIMARY KEY, v VARCHAR(40))",
	} {
		if _, err := leafSrv.ExecFree(sess, sql); err != nil {
			t.Fatal(err)
		}
	}
	relayMaster := NewMaster(r.env, relay.Srv, r.cloud.Network(), Async)
	leaf := NewSlave(r.env, leafSrv)
	relayMaster.Attach(leaf, relay.Srv.Log.LastSeq())

	for i := 0; i < 8; i++ {
		r.write(t, i, "cascade")
	}
	r.env.RunUntil(time.Minute)

	set, err := leafSrv.Session("app").Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Int() != 8 {
		t.Fatalf("leaf has %v rows, want 8 relayed through the mid-tier", set.Rows[0][0])
	}
	if leaf.ApplyErrors() != 0 {
		t.Fatalf("leaf apply errors: %d", leaf.ApplyErrors())
	}
	r.env.Stop()
	r.env.Shutdown()
}

// TestRowFormatBreaksHeartbeatMethodology is the negative control for the
// paper's measurement design: with row-based logging the heartbeat INSERT
// replicates with the master's literal timestamp, so the slave commits the
// master's clock reading instead of its own — the per-id timestamp
// difference collapses to zero and can no longer measure replication
// delay. The paper's methodology requires statement-based replication.
func TestRowFormatBreaksHeartbeatMethodology(t *testing.T) {
	measure := func(rowFormat bool) int64 {
		r := newRig(t, 15, 1, Async, sameZone())
		if rowFormat {
			r.master.Srv.SetRowFormat()
		}
		// Heartbeat-style insert: id + local microsecond timestamp.
		sess := r.master.Srv.Session("app")
		prep := r.master.Srv.Session("app")
		if _, err := prep.Exec("CREATE TABLE hb (id BIGINT PRIMARY KEY, ts TIMESTAMP(6))"); err != nil {
			t.Fatal(err)
		}
		r.env.Go("beat", func(p *sim.Proc) {
			p.Sleep(time.Second)
			r.master.Srv.Exec(p, sess, "INSERT INTO hb (id, ts) VALUES (1, UTC_MICROS())")
		})
		r.env.RunUntil(30 * time.Second)
		m, err := r.master.Srv.Session("app").Query("SELECT ts FROM hb WHERE id = 1")
		if err != nil {
			t.Fatal(err)
		}
		s, err := r.slaves[0].Srv.Session("app").Query("SELECT ts FROM hb WHERE id = 1")
		if err != nil || len(s.Rows) != 1 {
			t.Fatalf("slave heartbeat missing: %v %v", s, err)
		}
		diff := s.Rows[0][0].Micros() - m.Rows[0][0].Micros()
		r.env.Stop()
		r.env.Shutdown()
		return diff
	}

	sbr := measure(false)
	rbr := measure(true)
	// Statement-based: the slave's re-execution commits its own later
	// clock — a real, positive delay (≥ network + apply ≈ 36ms here).
	if sbr < (30 * time.Millisecond).Microseconds() {
		t.Fatalf("SBR heartbeat delay %d µs; expected a measurable delay", sbr)
	}
	// Row-based: identical literal timestamps — measured "delay" is zero.
	if rbr != 0 {
		t.Fatalf("RBR heartbeat delta %d µs; row images must carry the master timestamp", rbr)
	}
}
