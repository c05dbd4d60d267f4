package elastic

import (
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/shard"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func preloadApp(srv *server.DBServer) error {
	sess := srv.Session("")
	for _, sql := range []string{
		"CREATE DATABASE app",
		"CREATE TABLE app.t (id BIGINT PRIMARY KEY, v VARCHAR(20))",
		"INSERT INTO app.t (id, v) VALUES (1, 'seed')",
	} {
		if _, err := srv.ExecFree(sess, sql); err != nil {
			return err
		}
	}
	return nil
}

// newTier builds a small master+N-slave tier with a core handle.
func newTier(t *testing.T, seed int64, nSlaves int) (*sim.Env, *cluster.Cluster, *core.DB) {
	t.Helper()
	env := sim.NewEnv(seed)
	c := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	specs := make([]cluster.NodeSpec, nSlaves)
	for i := range specs {
		specs[i] = cluster.NodeSpec{Place: place}
	}
	clu, err := cluster.New(env, c, cluster.Config{
		Cost:    server.DefaultCostModel(),
		Master:  cluster.NodeSpec{Place: place},
		Slaves:  specs,
		Preload: preloadApp,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, clu, core.Open(clu, core.WithDatabase("app"), core.WithClientPlace(place))
}

// start runs a controller on db with no throughput signal.
func start(t *testing.T, env *sim.Env, db *core.DB, cfg Config) *Controller {
	t.Helper()
	c, err := Start(env, db, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStartTakesOneCell: the controller steers one master's fleet, so Start
// accepts a handle that fronts one cell — from Open or from OpenSharded — and
// refuses one that fronts two.
func TestStartTakesOneCell(t *testing.T) {
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	for cells := 1; cells <= 2; cells++ {
		env := sim.NewEnv(15)
		db, err := core.OpenSharded(env, cloud.New(env, cloud.Config{}),
			cluster.Config{Cost: server.DefaultCostModel(), Master: cluster.NodeSpec{Place: place}},
			core.WithShards(cells), core.WithDatabase("app"), core.WithClientPlace(place),
			core.WithKeyspace(shard.Keyspace{Key: map[string]string{"t": "id"}}),
			core.WithPartitionedPreload(func(func(string, int64) bool) func(*server.DBServer) error { return preloadApp }))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Start(env, db, nil, Config{})
		if refused := err != nil; refused != (cells > 1) {
			t.Errorf("%d cell(s): Start returned %v", cells, err)
		}
		if (c == nil) != (err != nil) {
			t.Errorf("%d cell(s): controller %v with error %v", cells, c, err)
		}
		env.Stop()
		env.Shutdown()
	}
}

func hasDecision(ds []Decision, action string) bool {
	for _, d := range ds {
		if d.Action == action {
			return true
		}
	}
	return false
}

// alwaysOut is a test policy that demands growth every tick; the
// controller's own guards (cooldown, warm-up, maxSlaves, master-bound) are
// what is under test.
type alwaysOut struct{}

func (alwaysOut) Name() string                   { return "always-out" }
func (alwaysOut) Decide(Sample) (Action, string) { return ScaleOut, "test" }

// TestWarmupGateNoReadsUntilCaughtUp is the acceptance test for the warm-up
// gate: a slave the controller adds mid-run must serve zero reads while it
// is quarantined and must only be admitted once its lag is at or below the
// warm-up threshold.
func TestWarmupGateNoReadsUntilCaughtUp(t *testing.T) {
	env, clu, db := newTier(t, 11, 1)
	first := clu.Slaves()[0]
	// The cooldown holds the first scale-out until 90 s, provisioning takes
	// 30 s more; the second cooldown outlasts the run.
	const end = 4 * time.Minute

	ctrl := start(t, env, db, Config{
		Spec:   cluster.NodeSpec{Place: first.Srv.Inst.Place},
		Policy: alwaysOut{},
	})

	// Write load keeps the binlog moving so the provisioned slave comes up
	// with a real backlog; read load gives the proxy reads to (mis)route.
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; p.Now() < end; i++ {
			if _, err := db.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'w')",
				sqlengine.NewInt(int64(1000+i))); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			p.Sleep(150 * time.Millisecond)
		}
	})
	for r := 0; r < 3; r++ {
		env.Go("reader", func(p *sim.Proc) {
			for p.Now() < end {
				if _, err := db.Query(p, "SELECT v FROM t WHERE id = 1"); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				p.Sleep(100 * time.Millisecond)
			}
		})
	}

	var added *repl.Slave
	sawLaggedQuarantine := false
	env.Go("watcher", func(p *sim.Proc) {
		for p.Now() < end {
			for _, sl := range clu.Slaves() {
				if sl != first && added == nil {
					added = sl
				}
			}
			if added != nil && db.Proxy().Quarantined(added) {
				if got := added.Srv.Stats().Reads; got != 0 {
					t.Errorf("quarantined slave %s served %d read(s)", added.Srv.Name, got)
					return
				}
				if added.EventsBehindMaster() > warmupMaxLagEvents {
					sawLaggedQuarantine = true
				}
			}
			p.Sleep(100 * time.Millisecond)
		}
	})

	env.RunUntil(sim.Time(end))
	ctrl.Stop()

	if added == nil {
		t.Fatal("controller never provisioned a second slave")
	}
	if !sawLaggedQuarantine {
		t.Error("provisioned slave was never observed both quarantined and above the lag threshold — warm-up window too short to be meaningful")
	}
	if db.Proxy().Quarantined(added) {
		t.Errorf("slave %s still quarantined at end of run (lag %d)", added.Srv.Name, added.EventsBehindMaster())
	}
	if got := added.Srv.Stats().Reads; got == 0 {
		t.Error("admitted slave served no reads after warm-up")
	}
	if !hasDecision(ctrl.Decisions(), "scale-out") || !hasDecision(ctrl.Decisions(), "admit") {
		t.Errorf("decision log missing scale-out/admit: %v", ctrl.Decisions())
	}
	for _, d := range ctrl.Decisions() {
		if d.Action == "admit" && !strings.Contains(d.Reason, "caught up") {
			t.Errorf("admit decision lacks catch-up reason: %v", d)
		}
	}
	env.Stop()
	env.Shutdown()
}

// TestMasterBoundPrecheck: a scale-out demanded while the master CPU is
// over the high water must be refused with a MasterBound verdict, and later
// demands must stay suppressed — no flapping against the ceiling.
func TestMasterBoundPrecheck(t *testing.T) {
	env, clu, db := newTier(t, 12, 1)
	c := start(t, env, db, Config{}) // observe-only ticks

	env.Go("test", func(p *sim.Proc) {
		p.Sleep(2 * time.Minute) // clear the cooldown guard
		c.tryScaleOut(p, Sample{MasterUtil: 0.95, AdmittedCount: 1, Throughput: 10}, "cpu high")
		c.tryScaleOut(p, Sample{MasterUtil: 0.95, AdmittedCount: 1, Throughput: 10}, "cpu high")
	})
	env.RunUntil(sim.Time(3 * time.Minute))

	bound, at, slaves := c.MasterBound()
	if !bound {
		t.Fatal("expected MasterBound verdict")
	}
	if slaves != 1 {
		t.Errorf("verdict at %d slaves, want 1", slaves)
	}
	if at != sim.Time(2*time.Minute) {
		t.Errorf("verdict at %v, want 2m", at)
	}
	if n := len(clu.Slaves()); n != 1 {
		t.Errorf("fleet grew to %d despite saturation", n)
	}
	count := 0
	for _, d := range c.Decisions() {
		if d.Action == "master-bound" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("want exactly one master-bound decision, got %d", count)
	}
	if !strings.Contains(c.Verdict(), "master-bound") {
		t.Errorf("verdict %q", c.Verdict())
	}
	env.Stop()
	env.Shutdown()
}

// TestJudgeRollsBackIneffectiveScaleOut: when throughput fails to improve
// after an admission and the master has no CPU headroom, the controller
// declares the tier master-bound and removes the replica that bought
// nothing.
func TestJudgeRollsBackIneffectiveScaleOut(t *testing.T) {
	env, clu, db := newTier(t, 13, 2)
	c := start(t, env, db, Config{})
	sl := clu.Slaves()[1]

	env.Go("test", func(p *sim.Proc) {
		p.Sleep(time.Second)
		c.judge = &judgeState{preTp: 10, at: p.Now(), slave: sl}
		c.judgeImprovement(p, Sample{Throughput: 10.1, MasterUtil: 0.95, AdmittedCount: 2})
	})
	env.RunUntil(sim.Time(2 * time.Minute)) // lets the drain process finish

	if bound, _, _ := c.MasterBound(); !bound {
		t.Fatal("expected MasterBound verdict")
	}
	if n := len(clu.Slaves()); n != 1 {
		t.Errorf("ineffective replica not rolled back: %d slaves attached", n)
	}
	if sl.Srv.Inst.Up() {
		t.Error("rolled-back replica's instance still running (still billing)")
	}
	if !hasDecision(c.Decisions(), "rollback") || !hasDecision(c.Decisions(), "drained") {
		t.Errorf("decision log missing rollback/drained: %v", c.Decisions())
	}
	env.Stop()
	env.Shutdown()
}

// TestJudgeKeepsEffectiveScaleOut: a clear throughput gain clears the judge
// without any verdict.
func TestJudgeKeepsEffectiveScaleOut(t *testing.T) {
	env, clu, db := newTier(t, 14, 2)
	c := start(t, env, db, Config{})
	sl := clu.Slaves()[1]

	env.Go("test", func(p *sim.Proc) {
		p.Sleep(time.Second)
		c.judge = &judgeState{preTp: 10, at: p.Now(), slave: sl}
		c.judgeImprovement(p, Sample{Throughput: 14, MasterUtil: 0.95, AdmittedCount: 2})
	})
	env.RunUntil(sim.Time(time.Minute))

	if bound, _, _ := c.MasterBound(); bound {
		t.Error("unexpected MasterBound verdict after a 40% gain")
	}
	if n := len(clu.Slaves()); n != 2 {
		t.Errorf("effective replica removed: %d slaves", n)
	}
	env.Stop()
	env.Shutdown()
}

// TestScaleBackDrainsInflightReads is the scale-in-ordering regression test:
// the controller removing a replica under live read load quarantines it in
// the proxy and drains its in-flight reads before the instance terminates,
// so no client read fails against a dying node.
func TestScaleBackDrainsInflightReads(t *testing.T) {
	env, clu, db := newTier(t, 21, 2)
	c := start(t, env, db, Config{})
	victim := clu.Slaves()[0]
	const end = 2 * time.Minute

	// Heavy read load: reads take ~95 ms, so several are always in flight
	// on each slave when the removal starts.
	readErrs := 0
	for r := 0; r < 8; r++ {
		env.Go("reader", func(p *sim.Proc) {
			p.Sleep(time.Second)
			for p.Now() < end {
				if _, err := db.Query(p, "SELECT v FROM t WHERE id = 1"); err != nil {
					readErrs++
				}
				p.Sleep(20 * time.Millisecond)
			}
		})
	}
	env.Go("operator", func(p *sim.Proc) {
		p.Sleep(30 * time.Second)
		c.removeGraceful(p, victim)
	})
	env.RunUntil(sim.Time(end))

	if readErrs != 0 {
		t.Fatalf("%d client read(s) failed across a graceful scale-in", readErrs)
	}
	if n := len(clu.Slaves()); n != 1 || clu.Slaves()[0] == victim {
		t.Fatalf("want the one survivor attached after scale-in, got %d slaves", n)
	}
	if victim.Srv.Inst.Up() {
		t.Error("removed replica's instance still running")
	}
	drained := false
	for _, d := range c.Decisions() {
		if d.Action == "drained" {
			drained = strings.Contains(d.Reason, "(0 read(s) abandoned)")
		}
	}
	if !drained {
		t.Errorf("decision log has no drain that abandoned nothing: %v", c.Decisions())
	}
	// The survivor keeps serving: reads continued after the removal.
	if db.Proxy().Stats().Reads == 0 {
		t.Fatal("no reads recorded")
	}
	env.Stop()
	env.Shutdown()
}
