package cluster

import (
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func preloadApp(rows int) func(*server.DBServer) error {
	return func(srv *server.DBServer) error {
		sess := srv.Session("")
		stmts := []string{
			"CREATE DATABASE app",
			"USE app",
			"CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(20))",
		}
		for _, sql := range stmts {
			if _, err := srv.ExecFree(sess, sql); err != nil {
				return err
			}
		}
		for i := 0; i < rows; i++ {
			if _, err := srv.ExecFree(sess, "INSERT INTO t (id, v) VALUES (?, 'seed')",
				sqlengine.NewInt(int64(i))); err != nil {
				return err
			}
		}
		return nil
	}
}

func newCluster(t *testing.T, seed int64, nSlaves, seedRows int, mode repl.Mode) (*sim.Env, *Cluster) {
	t.Helper()
	env := sim.NewEnv(seed)
	c := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	specs := make([]NodeSpec, nSlaves)
	for i := range specs {
		specs[i] = NodeSpec{Place: place}
	}
	clu, err := New(env, c, Config{
		Mode:    mode,
		Cost:    server.DefaultCostModel(),
		Master:  NodeSpec{Place: place},
		Slaves:  specs,
		Preload: preloadApp(seedRows),
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, clu
}

func count(t *testing.T, srv *server.DBServer) int64 {
	t.Helper()
	set, err := srv.Session("app").Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	return set.Rows[0][0].Int()
}

func write(env *sim.Env, clu *Cluster, id int) {
	sess := clu.Master().Srv.Session("app")
	env.Go("writer", func(p *sim.Proc) {
		clu.Master().Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (?, 'live')",
			sqlengine.NewInt(int64(id)))
	})
}

func TestClusterStartsFullySynchronized(t *testing.T) {
	env, clu := newCluster(t, 1, 3, 10, repl.Async)
	env.RunUntil(time.Second)
	if len(clu.Slaves()) != 3 {
		t.Fatalf("slaves = %d", len(clu.Slaves()))
	}
	for _, sl := range clu.Slaves() {
		if n := count(t, sl.Srv); n != 10 {
			t.Fatalf("slave preloaded %d rows, want 10", n)
		}
		if sl.EventsBehindMaster() != 0 {
			t.Fatal("fresh slave reports lag")
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestWritesReplicateToAllSlaves(t *testing.T) {
	env, clu := newCluster(t, 2, 2, 5, repl.Async)
	write(env, clu, 100)
	write(env, clu, 101)
	env.RunUntil(time.Minute)
	for _, sl := range clu.Slaves() {
		if n := count(t, sl.Srv); n != 7 {
			t.Fatalf("slave has %d rows, want 7", n)
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestAddSlaveMidRunCatchesUp(t *testing.T) {
	env, clu := newCluster(t, 3, 1, 5, repl.Async)
	write(env, clu, 100)
	env.RunUntil(10 * time.Second)
	sl, err := clu.AddSlave(NodeSpec{Place: cloud.Placement{Region: cloud.USWest1, Zone: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	write(env, clu, 101)
	env.RunUntil(time.Minute)
	if n := count(t, sl.Srv); n != 7 {
		t.Fatalf("late slave has %d rows, want 7 (5 preload + 2 replayed writes)", n)
	}
	if sl.ApplyErrors() != 0 {
		t.Fatalf("late slave apply errors: %d", sl.ApplyErrors())
	}
	env.Stop()
	env.Shutdown()
}

func TestRemoveSlave(t *testing.T) {
	env, clu := newCluster(t, 4, 2, 0, repl.Async)
	victim := clu.Slaves()[0]
	clu.RemoveSlave(victim)
	if len(clu.Slaves()) != 1 {
		t.Fatalf("slaves after removal: %d", len(clu.Slaves()))
	}
	if victim.Srv.Inst.Up() {
		t.Fatal("removed slave's instance still up")
	}
	write(env, clu, 1)
	env.RunUntil(time.Minute)
	if n := count(t, clu.Slaves()[0].Srv); n != 1 {
		t.Fatalf("survivor has %d rows", n)
	}
	env.Stop()
	env.Shutdown()
}

func TestFailoverPromotesMostUpToDate(t *testing.T) {
	env, clu := newCluster(t, 5, 3, 5, repl.Async)
	for i := 0; i < 10; i++ {
		write(env, clu, 100+i)
	}
	env.RunUntil(30 * time.Second)
	oldMaster := clu.Master()
	oldMaster.Srv.Inst.Terminate()
	promoted, err := clu.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Srv == oldMaster.Srv {
		t.Fatal("failover returned the dead master")
	}
	if len(clu.Slaves()) != 2 {
		t.Fatalf("slaves after failover: %d", len(clu.Slaves()))
	}
	// Cluster accepts writes again and replicates them to the survivors.
	write(env, clu, 999)
	env.RunUntil(2 * time.Minute)
	if n := count(t, promoted.Srv); n != 16 {
		t.Fatalf("new master has %d rows, want 16", n)
	}
	for _, sl := range clu.Slaves() {
		if n := count(t, sl.Srv); n != 16 {
			t.Fatalf("slave has %d rows after failover, want 16", n)
		}
		if sl.ApplyErrors() != 0 {
			t.Fatalf("apply errors after failover: %d", sl.ApplyErrors())
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestFailoverWithoutSlavesFails(t *testing.T) {
	env, clu := newCluster(t, 6, 0, 0, repl.Async)
	clu.Master().Srv.Inst.Terminate()
	if _, err := clu.Failover(); err != ErrNoPromotable {
		t.Fatalf("err = %v, want ErrNoPromotable", err)
	}
	env.Stop()
	env.Shutdown()
}

func TestSyncModeClusterWiring(t *testing.T) {
	env, clu := newCluster(t, 7, 2, 0, repl.Sync)
	sess := clu.Master().Srv.Session("app")
	var committed sim.Time
	env.Go("writer", func(p *sim.Proc) {
		clu.Master().Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (1, 'x')")
		clu.Master().WaitCommitted(p, clu.Master().Srv.Log.LastSeq())
		committed = p.Now()
	})
	env.RunUntil(time.Minute)
	if committed == 0 {
		t.Fatal("sync commit never completed")
	}
	for _, sl := range clu.Slaves() {
		if n := count(t, sl.Srv); n != 1 {
			t.Fatal("sync commit completed before apply")
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestPriorityApplyPropagatesToSlaves(t *testing.T) {
	env := sim.NewEnv(8)
	c := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	clu, err := New(env, c, Config{
		Cost:          server.DefaultCostModel(),
		Master:        NodeSpec{Place: place},
		Slaves:        []NodeSpec{{Place: place}},
		Preload:       preloadApp(0),
		PriorityApply: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !clu.Slaves()[0].Srv.PriorityApply {
		t.Fatal("PriorityApply not propagated to slave server")
	}
	if clu.Master().Srv.PriorityApply {
		t.Fatal("master should not run with apply priority")
	}
	late, err := clu.AddSlave(NodeSpec{Place: place})
	if err != nil {
		t.Fatal(err)
	}
	if !late.Srv.PriorityApply {
		t.Fatal("PriorityApply not propagated to late slave")
	}
}

func TestAddSlaveFromMasterSnapshot(t *testing.T) {
	env, clu := newCluster(t, 9, 1, 5, repl.Async)
	// Mutate past the preload so the snapshot differs from it.
	write(env, clu, 100)
	env.RunUntil(10 * time.Second)
	// ProvisionSlave's two halves, with no provisioning time between them.
	srv, pos, err := clu.snapshotProvision(NodeSpec{Place: cloud.Placement{Region: cloud.USWest1, Zone: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	sl := clu.attachProvisioned(srv, pos)
	// Snapshot already contains the live write: nothing to replay yet.
	if n := count(t, sl.Srv); n != 6 {
		t.Fatalf("snapshot slave has %d rows, want 6", n)
	}
	// New writes still replicate to it.
	write(env, clu, 101)
	env.RunUntil(time.Minute)
	if n := count(t, sl.Srv); n != 7 {
		t.Fatalf("snapshot slave has %d rows after new write, want 7", n)
	}
	if sl.ApplyErrors() != 0 {
		t.Fatalf("apply errors: %d", sl.ApplyErrors())
	}
	env.Stop()
	env.Shutdown()
}

// TestProvisionSlaveUnderWriteLoad drives continuous writes while a new
// replica is provisioned from a master snapshot. The replica must come up
// with a real catch-up backlog (the writes committed during the provision
// window), drain it with monotonically non-increasing lag at every sample
// while the write load continues, and converge to a byte-identical replica.
func TestProvisionSlaveUnderWriteLoad(t *testing.T) {
	env, clu := newCluster(t, 10, 1, 5, repl.Async)
	const writeUntil = 2 * time.Minute

	// ~10 writes/s: below the slave apply rate, so catch-up net-drains.
	env.Go("load", func(p *sim.Proc) {
		sess := clu.Master().Srv.Session("app")
		for i := 0; p.Now() < writeUntil; i++ {
			if _, err := clu.Master().Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (?, 'live')",
				sqlengine.NewInt(int64(1000+i))); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			p.Sleep(100 * time.Millisecond)
		}
	})

	var (
		sl        *repl.Slave
		provErr   error
		lagSample []uint64
	)
	env.Go("provision", func(p *sim.Proc) {
		p.Sleep(10 * time.Second) // let the backlog source get going
		sl, provErr = clu.ProvisionSlave(p, NodeSpec{Place: cloud.Placement{Region: cloud.USWest1, Zone: "a"}})
		if provErr != nil {
			return
		}
		// First observation with no yield since attach: the snapshot was
		// taken ProvisionTime ago, so the replica must start stale.
		lagSample = append(lagSample, sl.EventsBehindMaster())
		for p.Now() < writeUntil+time.Minute {
			p.Sleep(5 * time.Second)
			lagSample = append(lagSample, sl.EventsBehindMaster())
		}
	})

	env.RunUntil(writeUntil + 2*time.Minute)
	if provErr != nil {
		t.Fatal(provErr)
	}
	if sl == nil {
		t.Fatal("provision never completed")
	}
	if lagSample[0] == 0 {
		t.Fatal("provisioned slave attached with zero backlog; provision window had no writes")
	}
	// The catch-up phase must drain monotonically; once near the floor an
	// in-flight live write may flicker the lag by one, which is steady
	// state, not backlog growth.
	for i := 1; i < len(lagSample); i++ {
		if lagSample[i-1] > 5 && lagSample[i] > lagSample[i-1] {
			t.Fatalf("lag regressed at sample %d: %v", i, lagSample)
		}
	}
	if last := lagSample[len(lagSample)-1]; last != 0 {
		t.Fatalf("slave never caught up: final lag %d (%v)", last, lagSample)
	}
	if got, want := count(t, sl.Srv), count(t, clu.Master().Srv); got != want {
		t.Fatalf("replica diverged: %d rows vs master %d", got, want)
	}
	if sl.ApplyErrors() != 0 {
		t.Fatalf("apply errors: %d", sl.ApplyErrors())
	}
	env.Stop()
	env.Shutdown()
}
