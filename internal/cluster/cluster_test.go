package cluster

import (
	"fmt"
	"strings"
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
	promoted, dropped, err := clu.Failover()
	if err != nil || len(dropped) != 0 {
		t.Fatalf("failover: err %v, dropped %d", err, len(dropped))
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
	if _, _, err := clu.Failover(); err != ErrNoPromotable {
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
	// ProvisionSlave with no provisioning time.
	m := clu.Master().Srv
	sl, err := clu.startReplica(NodeSpec{Place: cloud.Placement{Region: cloud.USWest1, Zone: "b"}},
		m.Eng.Snapshot(), m.Log.LastSeq(), nil)
	if err != nil {
		t.Fatal(err)
	}
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
		// taken provisionTime ago, so the replica must start stale.
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

// dump renders every row of app.t in key order: two servers hold the same data
// exactly when their dumps are equal.
func dump(t *testing.T, srv *server.DBServer) string {
	t.Helper()
	set, err := srv.Session("app").Query("SELECT id, v FROM t ORDER BY id")
	if err != nil {
		t.Fatalf("dump %s: %v", srv.Name, err)
	}
	var b strings.Builder
	for _, r := range set.Rows {
		fmt.Fprintf(&b, "%d=%s;", r[0].Int(), r[1].String())
	}
	return b.String()
}

func liveInstances(c *cloud.Cloud) int {
	n := 0
	for _, inst := range c.Instances() {
		if inst.Up() {
			n++
		}
	}
	return n
}

// TestPreloadRunsOnce: Config.Preload is the master's; the initial slaves and
// a late one start from the image of what it left there, and their binlogs
// from the master's position then.
func TestPreloadRunsOnce(t *testing.T) {
	env := sim.NewEnv(11)
	c := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	calls := 0
	load := preloadApp(10)
	clu, err := New(env, c, Config{
		Cost: server.DefaultCostModel(), Master: NodeSpec{Place: place},
		Slaves:  []NodeSpec{{Place: place}, {Place: place}, {Place: place}},
		Preload: func(srv *server.DBServer) error { calls++; return load(srv) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("New ran Preload %d times for a master and three slaves, want once", calls)
	}
	for i := 0; i < 50; i++ {
		write(env, clu, 100+i)
	}
	env.RunUntil(time.Minute)
	late, err := clu.AddSlave(NodeSpec{Place: cloud.Placement{Region: cloud.USWest1, Zone: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("a late AddSlave ran Preload again (%d calls)", calls)
	}
	if n := count(t, late.Srv); n != 10 {
		t.Fatalf("late slave starts with %d rows, want the 10 preloaded", n)
	}
	env.RunUntil(3 * time.Minute)
	m := clu.Master().Srv
	for _, sl := range clu.Slaves() {
		if got, want := dump(t, sl.Srv), dump(t, m); got != want {
			t.Fatalf("%s diverged:\n%s\nmaster:\n%s", sl.Srv.Name, got, want)
		}
		if sl.ApplyErrors() != 0 {
			t.Fatalf("%s: %d apply errors", sl.Srv.Name, sl.ApplyErrors())
		}
		// Sequence numbering is the master's, however the replica was born.
		if got, want := sl.Srv.Log.LastSeq(), m.Log.LastSeq(); got != want {
			t.Fatalf("%s binlog ends at %d, the master's at %d", sl.Srv.Name, got, want)
		}
		if _, err := sl.Srv.Log.At(clu.basePos); err == nil {
			t.Fatalf("%s holds a binlog entry at the base position %d: it ran the preload", sl.Srv.Name, clu.basePos)
		}
	}
	env.Stop()
	env.Shutdown()
}

// TestFailedStartLeavesNoInstance: a cluster that cannot be built, or a
// replica that cannot be started, terminates what it launched.
func TestFailedStartLeavesNoInstance(t *testing.T) {
	env := sim.NewEnv(12)
	c := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	_, err := New(env, c, Config{
		Cost: server.DefaultCostModel(), Master: NodeSpec{Place: place}, Slaves: []NodeSpec{{Place: place}},
		Preload: func(srv *server.DBServer) error {
			_, err := srv.ExecFree(srv.Session(""), "INSERT INTO nowhere.t (id) VALUES (1)")
			return err
		},
	})
	if err == nil {
		t.Fatal("New succeeded with a failing Preload")
	}
	if n := liveInstances(c); n != 0 {
		t.Fatalf("%d instance(s) still running after New failed: %v", n, err)
	}

	// A replica whose start position the master's binlog does not reach back
	// to cannot attach.
	env2, clu := newCluster(t, 12, 1, 5, repl.Async)
	before := liveInstances(clu.Cloud())
	behind := server.New(env2, "elsewhere", clu.Cloud().Launch("elsewhere", cloud.Small, place), server.DefaultCostModel())
	if err := behind.Restore(clu.base, clu.basePos+10); err != nil {
		t.Fatal(err)
	}
	clu.master = repl.NewMaster(env2, behind, clu.Cloud().Network(), repl.Async)
	if _, err := clu.AddSlave(NodeSpec{Place: place}); err == nil {
		t.Fatal("AddSlave attached below the master's first binlog entry")
	}
	if n := liveInstances(clu.Cloud()); n != before+1 { // +1: "elsewhere" itself
		t.Fatalf("%d instances running after a failed AddSlave, want %d", n, before+1)
	}
	env.Shutdown()
	env2.Stop()
	env2.Shutdown()
}

// provisionedThenPromoted builds the scenario behind both tests below: a
// master and a far replica (another continent), ten writes, a replica
// provisioned beside the master, five more writes, and the master lost at the
// first instant the near replica has applied them all. It returns the far
// replica's applied position then, and the near one's.
func provisionedThenPromoted(t *testing.T, seed int64) (env *sim.Env, clu *Cluster, far, near *repl.Slave) {
	t.Helper()
	env = sim.NewEnv(seed)
	c := cloud.New(env, cloud.Config{})
	home := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	clu, err := New(env, c, Config{
		Cost: server.DefaultCostModel(), Master: NodeSpec{Place: home},
		Slaves:  []NodeSpec{{Place: cloud.Placement{Region: cloud.EUWest1, Zone: "a"}}},
		Preload: preloadApp(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	far = clu.Slaves()[0]
	for i := 0; i < 10; i++ {
		write(env, clu, 100+i)
	}
	env.RunUntil(10 * time.Second)
	var provErr error
	env.Go("provision", func(p *sim.Proc) { near, provErr = clu.ProvisionSlave(p, NodeSpec{Place: home}) })
	env.RunUntil(time.Minute)
	if provErr != nil || near == nil {
		t.Fatalf("provision: %v", provErr)
	}
	for i := 0; i < 5; i++ {
		write(env, clu, 200+i)
	}
	last := clu.basePos + 15
	for at := time.Minute; near.AppliedSeq() < last; at += time.Millisecond {
		if at > 2*time.Minute {
			t.Fatalf("near replica stuck at %d of %d", near.AppliedSeq(), last)
		}
		env.RunUntil(at)
	}
	if far.AppliedSeq() >= last {
		t.Fatalf("the far replica has applied %d of %d too: nothing for failover to get wrong", far.AppliedSeq(), last)
	}
	clu.Master().Srv.Inst.Terminate()
	return env, clu, far, near
}

// TestFailoverPromotesProvisionedReplica: a replica provisioned from a live
// image numbers its binlog as the master did, so when it is promoted a lagging
// survivor re-attaches where it really is. (Its binlog used to start at 1: the
// survivor's position lay past its end, was clamped to the end, and the writes
// in between — acknowledged and replicated — never reached the survivor.)
func TestFailoverPromotesProvisionedReplica(t *testing.T) {
	env, clu, far, near := provisionedThenPromoted(t, 13)
	promoted, dropped, err := clu.Failover()
	if err != nil || len(dropped) != 0 {
		t.Fatalf("failover: err %v, dropped %d", err, len(dropped))
	}
	if promoted.Srv != near.Srv {
		t.Fatalf("promoted %s, want the provisioned replica %s", promoted.Srv.Name, near.Srv.Name)
	}
	if got, want := promoted.Srv.Log.LastSeq(), clu.basePos+15; got != want {
		t.Fatalf("promoted binlog ends at %d, want the old master's %d", got, want)
	}
	write(env, clu, 999)
	env.RunUntil(7 * time.Minute)
	survivor := clu.Slaves()[0]
	if survivor.Srv != far.Srv {
		t.Fatalf("survivor is %s, want %s", survivor.Srv.Name, far.Srv.Name)
	}
	if got, want := dump(t, survivor.Srv), dump(t, promoted.Srv); got != want || count(t, promoted.Srv) != 21 {
		t.Fatalf("survivor diverged from the promoted master (%d rows):\n%s\nmaster:\n%s", count(t, promoted.Srv), got, want)
	}
	if n := survivor.ApplyErrors(); n != 0 {
		t.Fatalf("survivor hit %d apply errors: a statement it had run was shipped again", n)
	}
	if n := survivor.EventsBehindMaster(); n != 0 {
		t.Fatalf("survivor still %d events behind", n)
	}
	env.Stop()
	env.Shutdown()
}

// TestFailoverDropsSurvivorBehindPromotedLog: the complementary case — the
// survivor has applied less than the promoted replica's binlog reaches back
// to. Nothing can bring it forward from there: it is terminated and reported,
// never attached at some other position.
func TestFailoverDropsSurvivorBehindPromotedLog(t *testing.T) {
	env, clu, far, near := provisionedThenPromoted(t, 14)
	// Stand the far replica where it was before the near one was provisioned.
	behind := repl.NewSlave(env, far.Srv)
	clu.Master().Detach(far)
	if err := clu.Master().Attach(behind, repl.Executed{Low: clu.basePos + 3}); err != nil {
		t.Fatal(err)
	}
	promoted, dropped, err := clu.Failover()
	if err != nil || promoted.Srv != near.Srv {
		t.Fatalf("failover: promoted %v, err %v", promoted, err)
	}
	if len(dropped) != 1 || dropped[0] != behind {
		t.Fatalf("dropped %v, want the replica at position %d (the promoted binlog starts after %d)",
			dropped, behind.AppliedSeq(), clu.basePos+10)
	}
	if far.Srv.Up() || len(clu.Slaves()) != 0 {
		t.Fatalf("dropped replica up = %v, %d slaves attached", far.Srv.Up(), len(clu.Slaves()))
	}
	// The base image is older than the promoted binlog too; a fresh image is not.
	if _, err := clu.AddSlave(NodeSpec{Place: near.Srv.Inst.Place}); err == nil {
		t.Fatal("AddSlave attached a base-image replica to a binlog that starts later")
	}
	var sl *repl.Slave
	env.Go("provision", func(p *sim.Proc) { sl, err = clu.ProvisionSlave(p, NodeSpec{Place: near.Srv.Inst.Place}) })
	write(env, clu, 999)
	env.RunUntil(5 * time.Minute)
	if err != nil || sl == nil {
		t.Fatalf("provision after failover: %v", err)
	}
	if got, want := dump(t, sl.Srv), dump(t, promoted.Srv); got != want {
		t.Fatalf("replica provisioned after failover diverged:\n%s\nmaster:\n%s", got, want)
	}
	env.Stop()
	env.Shutdown()
}

// TestFailoverDoesNotReshipAnExecutedStatement: Apply replays a statement and
// then parks paying its CPU, so a replica whose master dies in that window has
// executed one statement more than it has applied. A survivor re-attached at
// its applied position is shipped that statement a second time: here an
// INSERT, which fails on its duplicate key.
func TestFailoverDoesNotReshipAnExecutedStatement(t *testing.T) {
	env := sim.NewEnv(9)
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	clu, err := New(env, cloud.New(env, cloud.Config{}), Config{
		Cost:   server.DefaultCostModel(),
		Master: NodeSpec{Place: place},
		Slaves: []NodeSpec{{Place: place}, {Place: place}},
		Preload: func(srv *server.DBServer) error {
			sess := srv.Session("")
			for _, sql := range []string{
				"CREATE DATABASE app",
				"CREATE TABLE app.c (id BIGINT PRIMARY KEY, x BIGINT)",
				"INSERT INTO app.c (id, x) VALUES (1, 0)",
			} {
				if _, err := srv.ExecFree(sess, sql); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := clu.Master()
	env.Go("writer", func(p *sim.Proc) {
		if _, err := m.Srv.Exec(p, m.Srv.Session("app"), "INSERT INTO c (id, x) VALUES (2, 1)"); err != nil {
			t.Errorf("insert: %v", err)
		}
	})
	crashed := false
	env.Go("crash", func(p *sim.Proc) {
		for ; p.Now() < time.Second; p.Sleep(time.Millisecond) {
			// Both appliers have run the UPDATE and neither has finished
			// paying for it.
			inCharge := 0
			for _, sl := range clu.Slaves() {
				if sl.Srv.Stats().Applied == 1 && sl.AppliedSeq() < m.Srv.Log.LastSeq() {
					inCharge++
				}
			}
			if inCharge < 2 {
				continue
			}
			crashed = true
			m.Srv.Inst.Terminate()
			if _, dropped, err := clu.Failover(); err != nil || len(dropped) != 0 {
				t.Errorf("failover: err %v, dropped %d", err, len(dropped))
			}
			return
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()

	if !crashed {
		t.Fatal("the master was never caught with both appliers inside the apply charge")
	}
	x := func(srv *server.DBServer) int64 {
		set, err := srv.Session("app").Query("SELECT x FROM c WHERE id = 2")
		if err != nil {
			t.Fatal(err)
		}
		return set.Rows[0][0].Int()
	}
	if len(clu.Slaves()) != 1 {
		t.Fatalf("%d survivor(s) attached, want 1", len(clu.Slaves()))
	}
	survivor := clu.Slaves()[0]
	if got, want := x(survivor.Srv), x(clu.Master().Srv); got != want || want != 1 {
		t.Errorf("x = %d on the survivor and %d on the promoted master, want 1 on both", got, want)
	}
	if n := survivor.ApplyErrors(); n != 0 {
		t.Errorf("%d apply error(s) on the survivor", n)
	}
}
