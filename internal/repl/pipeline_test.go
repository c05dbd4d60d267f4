package repl

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/chaos"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// newPipelineRig is newRig with a replication-pipeline configuration
// applied before any slave attaches.
func newPipelineRig(t *testing.T, seed int64, nSlaves int, mode Mode, place cloud.Placement, pc PipelineConfig) *rig {
	t.Helper()
	env := sim.NewEnv(seed)
	c := cloud.New(env, cloud.Config{})
	mInst := c.Launch("master", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"})
	mSrv := server.New(env, "master", mInst, server.DefaultCostModel())
	m := NewMaster(env, mSrv, c.Network(), mode)
	m.Pipeline = pc
	mSrv.GroupCommitWindow = pc.GroupCommitWindow

	preload := func(srv *server.DBServer) {
		sess := srv.Session("")
		for _, sql := range []string{
			"CREATE DATABASE app",
			"USE app",
			"CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(40))",
			"CREATE TABLE u (id BIGINT PRIMARY KEY, v VARCHAR(40))",
		} {
			if _, err := srv.ExecFree(sess, sql); err != nil {
				t.Fatalf("preload %s: %v", sql, err)
			}
		}
	}
	preload(mSrv)

	r := &rig{env: env, cloud: c, master: m}
	for i := 0; i < nSlaves; i++ {
		sInst := c.Launch(fmt.Sprintf("slave%d", i+1), cloud.Small, place)
		sSrv := server.New(env, fmt.Sprintf("slave%d", i+1), sInst, server.DefaultCostModel())
		preload(sSrv)
		sl := NewSlave(env, sSrv)
		m.Attach(sl, Executed{Low: mSrv.Log.LastSeq()})
		r.slaves = append(r.slaves, sl)
	}
	return r
}

// tableDump returns a server's table contents as a sorted, canonical
// string — the checksum the exactly-once assertions compare.
func tableDump(t *testing.T, srv *server.DBServer, table string) string {
	t.Helper()
	set, err := srv.Session("app").Query("SELECT id, v FROM " + table)
	if err != nil {
		t.Fatalf("dump %s: %v", table, err)
	}
	rows := make([]string, 0, len(set.Rows))
	for _, row := range set.Rows {
		rows = append(rows, fmt.Sprintf("%d=%s", row[0].Int(), row[1].String()))
	}
	sort.Strings(rows)
	return strings.Join(rows, ",")
}

func (r *rig) writeTo(t *testing.T, table string, id int, v string) {
	t.Helper()
	sess := r.master.Srv.Session("app")
	r.env.Go("writer", func(p *sim.Proc) {
		if _, err := r.master.Srv.Exec(p, sess,
			"INSERT INTO "+table+" (id, v) VALUES (?, ?)",
			sqlengine.NewInt(int64(id)), sqlengine.NewString(v)); err != nil {
			t.Errorf("write %s: %v", table, err)
		}
	})
}

// Conflicting statements (same row, same table) must apply in commit order
// even with several workers: the final row value is the last write's.
func TestParallelApplyPreservesConflictOrder(t *testing.T) {
	r := newPipelineRig(t, 1, 2, Async, sameZone(), PipelineConfig{ApplyWorkers: 4})
	sess := r.master.Srv.Session("app")
	r.env.Go("writer", func(p *sim.Proc) {
		if _, err := r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'v0')"); err != nil {
			t.Errorf("insert: %v", err)
		}
		for i := 1; i <= 20; i++ {
			if _, err := r.master.Srv.Exec(p, sess, "UPDATE t SET v = ? WHERE id = 1",
				sqlengine.NewString(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("update %d: %v", i, err)
			}
			// Interleave writes to the other table so workers have
			// something to reorder if the scheduler were broken.
			if _, err := r.master.Srv.Exec(p, sess, "INSERT INTO u (id, v) VALUES (?, 'x')",
				sqlengine.NewInt(int64(i))); err != nil {
				t.Errorf("insert u %d: %v", i, err)
			}
		}
	})
	r.env.RunUntil(2 * time.Minute)
	want := tableDump(t, r.master.Srv, "t")
	if !strings.Contains(want, "1=v20") {
		t.Fatalf("master final state unexpected: %s", want)
	}
	for i, sl := range r.slaves {
		if sl.ApplyErrors() != 0 {
			t.Fatalf("slave %d apply errors: %d", i, sl.ApplyErrors())
		}
		if got := tableDump(t, sl.Srv, "t"); got != want {
			t.Fatalf("slave %d t diverged:\n got %s\nwant %s", i, got, want)
		}
		if got, want := tableDump(t, sl.Srv, "u"), tableDump(t, r.master.Srv, "u"); got != want {
			t.Fatalf("slave %d u diverged:\n got %s\nwant %s", i, got, want)
		}
		if sl.AppliedSeq() != r.master.Srv.Log.LastSeq() {
			t.Fatalf("slave %d applied %d, master at %d", i, sl.AppliedSeq(), r.master.Srv.Log.LastSeq())
		}
	}
	r.env.Stop()
	r.env.Shutdown()
}

// A DDL statement mid-stream is a full barrier: writes to the new table
// dispatched after it must wait for it, on every worker.
func TestParallelApplyDDLBarrier(t *testing.T) {
	r := newPipelineRig(t, 2, 1, Async, sameZone(), PipelineConfig{ApplyWorkers: 4})
	sess := r.master.Srv.Session("app")
	r.env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (?, 'pre')", sqlengine.NewInt(int64(i)))
		}
		r.master.Srv.Exec(p, sess, "CREATE TABLE w (id BIGINT PRIMARY KEY, v VARCHAR(40))")
		for i := 0; i < 5; i++ {
			r.master.Srv.Exec(p, sess, "INSERT INTO w (id, v) VALUES (?, 'post')", sqlengine.NewInt(int64(i)))
		}
	})
	r.env.RunUntil(time.Minute)
	sl := r.slaves[0]
	if sl.ApplyErrors() != 0 {
		t.Fatalf("apply errors: %d (writes to w raced its CREATE TABLE?)", sl.ApplyErrors())
	}
	if got, want := tableDump(t, sl.Srv, "w"), tableDump(t, r.master.Srv, "w"); got != want {
		t.Fatalf("slave w diverged:\n got %s\nwant %s", got, want)
	}
	r.env.Stop()
	r.env.Shutdown()
}

// With client reads competing for the slave's CPU, K apply workers drain a
// relay backlog faster than the single SQL thread: they keep K requests in
// the instance's FIFO instead of one.
func TestParallelApplyDrainsFasterUnderReads(t *testing.T) {
	drain := func(workers int) sim.Time {
		// Batching is on in both arms: without it the io thread ingests one
		// entry per CPU-queue round trip on a read-loaded slave, so the
		// relay log never builds the backlog that lets apply workers
		// overlap. This isolates the apply stage as the variable.
		pc := PipelineConfig{BatchMaxEntries: 16, BatchMaxBytes: 64 << 10, ApplyWorkers: workers}
		r := newPipelineRig(t, 3, 1, Async, sameZone(), pc)
		sl := r.slaves[0]
		// Saturating read traffic on the slave, alternating tables so the
		// reads themselves are not the bottleneck under test.
		for c := 0; c < 6; c++ {
			sess := sl.Srv.Session("app")
			r.env.Go("reader", func(p *sim.Proc) {
				for {
					if _, err := sl.Srv.Exec(p, sess, "SELECT COUNT(*) FROM t"); err != nil {
						return
					}
				}
			})
		}
		// A burst of independent writes (disjoint rows across two tables).
		for i := 0; i < 30; i++ {
			tbl := "t"
			if i%2 == 0 {
				tbl = "u"
			}
			r.writeTo(t, tbl, i, "x")
		}
		var caughtUp sim.Time
		r.env.Go("watch", func(p *sim.Proc) {
			for sl.AppliedSeq() < 30 {
				p.Sleep(10 * time.Millisecond)
			}
			caughtUp = p.Now()
		})
		r.env.RunUntil(10 * time.Minute)
		if caughtUp == 0 {
			t.Fatalf("workers=%d never caught up (applied %d/30)", workers, sl.AppliedSeq())
		}
		r.env.Stop()
		r.env.Shutdown()
		return caughtUp
	}
	single := drain(1)
	parallel := drain(4)
	if parallel >= single {
		t.Fatalf("4 workers drained in %v, single thread in %v: expected parallel speedup", parallel, single)
	}
}

// Batched shipping coalesces a backlog into far fewer network transits
// without losing or reordering anything.
func TestBatchedShippingCoalescesBacklog(t *testing.T) {
	pc := PipelineConfig{BatchMaxEntries: 16, BatchMaxBytes: 64 << 10}
	r := newPipelineRig(t, 4, 1, Async, sameZone(), pc)
	for i := 0; i < 48; i++ {
		r.write(t, i, "v")
	}
	r.env.RunUntil(2 * time.Minute)
	sl := r.slaves[0]
	if got, want := tableDump(t, sl.Srv, "t"), tableDump(t, r.master.Srv, "t"); got != want {
		t.Fatalf("slave diverged:\n got %s\nwant %s", got, want)
	}
	st := r.master.Stats()
	if st.EntriesShipped != 48 {
		t.Fatalf("EntriesShipped = %d, want 48", st.EntriesShipped)
	}
	if st.BatchesShipped >= st.EntriesShipped {
		t.Fatalf("no coalescing: %d batches for %d entries", st.BatchesShipped, st.EntriesShipped)
	}
	r.env.Stop()
	r.env.Shutdown()
}

// An unloaded master must ship a lone write with the same latency whether
// batching is configured or not (flush-on-idle: batches of one).
func TestBatchingDoesNotDelayIdlemaster(t *testing.T) {
	applyTime := func(pc PipelineConfig) sim.Time {
		r := newPipelineRig(t, 5, 1, Async, sameZone(), pc)
		// The rig's preload already occupies the first binlog positions, so
		// wait for the write relative to the position before it.
		base := r.master.Srv.Log.LastSeq()
		r.write(t, 1, "only")
		var at sim.Time
		r.env.Go("watch", func(p *sim.Proc) {
			for r.slaves[0].AppliedSeq() < base+1 {
				p.Sleep(time.Millisecond)
			}
			at = p.Now()
		})
		r.env.RunUntil(time.Minute)
		r.env.Stop()
		r.env.Shutdown()
		return at
	}
	baseline := applyTime(PipelineConfig{})
	batched := applyTime(PipelineConfig{BatchMaxEntries: 32, BatchMaxBytes: 64 << 10})
	if baseline == 0 || batched == 0 {
		t.Fatal("write never applied")
	}
	if batched != baseline {
		t.Fatalf("idle-latency regression: batched %v vs baseline %v", batched, baseline)
	}
}

// The semi-sync degradation state machine: a timeout degrades the master
// (counted), later commits stop waiting, and a caught-up slave upgrades it
// back (MySQL rpl_semi_sync semantics).
func TestSemiSyncDegradationCountsAndReupgrades(t *testing.T) {
	r := newRig(t, 7, 1, SemiSync, diffRegion())
	r.master.semiSyncTimeout = 50 * time.Millisecond // below the ≈173ms one-way latency
	sess := r.master.Srv.Session("app")

	var acks []bool
	var degradedElapsed time.Duration
	r.env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i)))
			before := p.Now()
			ok := r.master.WaitCommitted(p, r.master.Srv.Log.LastSeq())
			if i == 1 {
				degradedElapsed = time.Duration(p.Now() - before)
			}
			acks = append(acks, ok)
		}
	})
	r.env.RunUntil(30 * time.Second)

	if acks[0] || acks[1] || acks[2] {
		t.Fatalf("acks = %v, want all degraded", acks)
	}
	st := r.master.Stats()
	if st.DegradedCommits != 3 {
		t.Fatalf("DegradedCommits = %d, want 3", st.DegradedCommits)
	}
	if degradedElapsed != 0 {
		t.Fatalf("degraded commit waited %v, want immediate return", degradedElapsed)
	}

	// By now the slave has long received everything and acked the end of
	// the binlog: the master must have upgraded back.
	st = r.master.Stats()
	if st.Degraded {
		t.Fatal("master still degraded after slave caught up")
	}
	if st.Reupgrades != 1 {
		t.Fatalf("Reupgrades = %d, want 1", st.Reupgrades)
	}

	// With a timeout that accommodates the round trip, semi-sync works
	// again end to end.
	r.master.semiSyncTimeout = 2 * time.Second
	var okAfter bool
	r.env.Go("writer2", func(p *sim.Proc) {
		r.master.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (100, 'y')")
		okAfter = r.master.WaitCommitted(p, r.master.Srv.Log.LastSeq())
	})
	r.env.RunUntil(40 * time.Second)
	if !okAfter {
		t.Fatal("semi-sync did not recover after re-upgrade")
	}
	if st := r.master.Stats(); st.DegradedCommits != 3 {
		t.Fatalf("recovered commit still counted degraded: %d", st.DegradedCommits)
	}
	r.env.Stop()
	r.env.Shutdown()
}

// Chaos × pipeline: a slave crash and a network partition in the middle of
// batched, parallel-applied replication must not lose or double-apply relay
// entries. Exactly-once is asserted by checksumming slave tables against
// the master (a double-applied INSERT would also surface as a primary-key
// apply error).
func TestPipelineChaosExactlyOnce(t *testing.T) {
	pc := PipelineConfig{BatchMaxEntries: 16, BatchMaxBytes: 64 << 10, ApplyWorkers: 4}
	r := newPipelineRig(t, 8, 2, Async, sameZone(), pc)

	sched := (&chaos.Schedule{}).
		CrashFor(2*time.Second, 3*time.Second, "slave1").
		PartitionFor(8*time.Second, 2*time.Second,
			cloud.Placement{Region: cloud.USWest1, Zone: "a"},
			cloud.Placement{Region: cloud.USWest1, Zone: "a"})
	chaos.Start(r.env, r.cloud, sched)

	// A steady write stream spanning crash, partition and recovery.
	sess := r.master.Srv.Session("app")
	r.env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			tbl := "t"
			if i%3 == 0 {
				tbl = "u"
			}
			if _, err := r.master.Srv.Exec(p, sess,
				"INSERT INTO "+tbl+" (id, v) VALUES (?, ?)",
				sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			p.Sleep(100 * time.Millisecond)
		}
	})

	r.env.RunUntil(5 * time.Minute)
	last := r.master.Srv.Log.LastSeq()
	for i, sl := range r.slaves {
		if sl.ApplyErrors() != 0 {
			t.Fatalf("slave %d apply errors: %d (duplicate apply?)", i, sl.ApplyErrors())
		}
		if sl.AppliedSeq() != last {
			t.Fatalf("slave %d applied %d, master at %d (lost entries?)", i, sl.AppliedSeq(), last)
		}
		for _, tbl := range []string{"t", "u"} {
			if got, want := tableDump(t, sl.Srv, tbl), tableDump(t, r.master.Srv, tbl); got != want {
				t.Fatalf("slave %d table %s diverged after chaos:\n got %s\nwant %s", i, tbl, got, want)
			}
		}
	}
	r.env.Stop()
	r.env.Shutdown()
}
