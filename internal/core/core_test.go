package core

import (
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func preload(srv *server.DBServer) error {
	sess := srv.Session("")
	for _, sql := range []string{
		"CREATE DATABASE app",
		"CREATE TABLE app.t (id BIGINT PRIMARY KEY, v VARCHAR(20))",
	} {
		if _, err := srv.ExecFree(sess, sql); err != nil {
			return err
		}
	}
	return nil
}

func newDB(t *testing.T, seed int64, nSlaves int, opts ...Option) (*sim.Env, *DB) {
	t.Helper()
	env := sim.NewEnv(seed)
	c := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	specs := make([]cluster.NodeSpec, nSlaves)
	for i := range specs {
		specs[i] = cluster.NodeSpec{Place: place}
	}
	clu, err := cluster.New(env, c, cluster.Config{
		Mode:    repl.Async,
		Cost:    server.DefaultCostModel(),
		Master:  cluster.NodeSpec{Place: place},
		Slaves:  specs,
		Preload: preload,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := append([]Option{WithDatabase("app"), WithClientPlace(place)}, opts...)
	return env, Open(clu, all...)
}

func TestExecAndQueryEndToEnd(t *testing.T) {
	env, db := newDB(t, 1, 2)
	env.Go("app", func(p *sim.Proc) {
		if _, err := db.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'hello')"); err != nil {
			t.Errorf("exec: %v", err)
			return
		}
		if !db.WaitCaughtUp(p, time.Minute) {
			t.Error("slaves never caught up")
			return
		}
		set, err := db.Query(p, "SELECT v FROM t WHERE id = 1")
		if err != nil {
			t.Errorf("query: %v", err)
			return
		}
		if len(set.Rows) != 1 || set.Rows[0][0].String() != "hello" {
			t.Errorf("rows: %v", set.Rows)
		}
	})
	env.RunUntil(5 * time.Minute)
	env.Stop()
	env.Shutdown()
}

func TestPoolBoundsConcurrency(t *testing.T) {
	env, db := newDB(t, 2, 1, WithPool(pool.Config{MaxActive: 2, MaxIdle: 2}))
	done := 0
	for i := 0; i < 6; i++ {
		i := i
		env.Go("app", func(p *sim.Proc) {
			if _, err := db.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i))); err != nil {
				t.Errorf("exec: %v", err)
				return
			}
			done++
		})
	}
	env.RunUntil(10 * time.Minute)
	if done != 6 {
		t.Fatalf("done = %d", done)
	}
	st := db.Pool().Stats()
	if st.Created > 2 {
		t.Fatalf("pool created %d conns, cap 2", st.Created)
	}
	if st.Waits == 0 {
		t.Fatal("expected borrowers to wait on the small pool")
	}
	env.Stop()
	env.Shutdown()
}

func TestStalenessReporting(t *testing.T) {
	env, db := newDB(t, 3, 2)
	// Freeze one slave's applier so staleness accumulates.
	db.Cluster().Slaves()[0].Stop()
	env.Go("app", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			db.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i)))
		}
		p.Sleep(10 * time.Second)
		st := db.Staleness()
		if len(st.Slaves) != 2 {
			t.Errorf("staleness slaves: %d", len(st.Slaves))
		}
		if st.MaxEvents != 5 {
			t.Errorf("max staleness = %d, want 5", st.MaxEvents)
		}
	})
	env.RunUntil(5 * time.Minute)
	env.Stop()
	env.Shutdown()
}

// TestScaleOutAndIn: Scale adds replicas; scaling in is the elastic
// controller's (elastic.TestScaleBackDrainsInflightReads).
func TestScaleOutAndIn(t *testing.T) {
	env, db := newDB(t, 4, 1)
	env.Go("app", func(p *sim.Proc) {
		if err := db.Scale(1, ScaleOpts{Spec: cluster.NodeSpec{Place: cloud.Placement{Region: cloud.USWest1, Zone: "b"}}}); err != nil {
			t.Errorf("scale out: %v", err)
			return
		}
		if got := len(db.Cluster().Slaves()); got != 2 {
			t.Errorf("slaves after scale-out: %d", got)
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

func TestFailoverRepointsProxy(t *testing.T) {
	env, db := newDB(t, 5, 2)
	env.Go("app", func(p *sim.Proc) {
		db.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'pre')")
		db.WaitCaughtUp(p, time.Minute)
		db.Cluster().Master().Srv.Inst.Terminate()
		if err := db.Failover(); err != nil {
			t.Errorf("failover: %v", err)
			return
		}
		if _, err := db.Exec(p, "INSERT INTO t (id, v) VALUES (2, 'post')"); err != nil {
			t.Errorf("write after failover: %v", err)
			return
		}
		set, err := db.Query(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("read after failover: %v", err)
			return
		}
		if set.Rows[0][0].Int() != 2 {
			t.Errorf("count after failover: %v", set.Rows[0][0])
		}
	})
	env.RunUntil(10 * time.Minute)
	env.Stop()
	env.Shutdown()
}

func TestStalenessBoundedOptionIntegration(t *testing.T) {
	// A frozen slave three events behind a bound of two serves nothing.
	env, db := newDB(t, 6, 1, WithConsistency(proxy.Bounded), WithMaxStaleEvents(2))
	db.Cluster().Slaves()[0].Stop()
	env.Go("app", func(p *sim.Proc) {
		for i := 1; i <= 3; i++ {
			db.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i)))
		}
		set, err := db.Query(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("query: %v", err)
			return
		}
		if set.Rows[0][0].Int() != 3 {
			t.Error("bounded-tier handle served stale read")
		}
	})
	env.RunUntil(time.Minute)
	if db.Proxy().Stats().MasterFallbacks == 0 {
		t.Fatal("expected master fallback with frozen slave")
	}
	env.Stop()
	env.Shutdown()
}

func TestValidateInstances(t *testing.T) {
	env, db := newDB(t, 7, 2)
	var reports []InstanceReport
	env.Go("validate", func(p *sim.Proc) {
		reports = db.ValidateInstances(p, 5)
	})
	env.Run()
	if len(reports) != 3 {
		t.Fatalf("reports: %d, want master + 2 slaves", len(reports))
	}
	for _, r := range reports {
		if r.Speed < 0.99 || r.Speed > 1.01 { // homogeneous test cloud
			t.Fatalf("%s speed %v, want ≈1", r.Name, r.Speed)
		}
	}
}

func TestStatsAndClose(t *testing.T) {
	env, db := newDB(t, 8, 1)
	env.Go("app", func(p *sim.Proc) {
		db.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')")
		db.Query(p, "SELECT COUNT(*) FROM t")
		st := db.Stats()
		if st.Proxy.Writes != 1 || st.Proxy.Reads != 1 {
			t.Errorf("proxy stats: %+v", st.Proxy)
		}
		if st.Pool.Borrows != 2 || st.Pool.Returns != 2 {
			t.Errorf("pool stats: %+v", st.Pool)
		}
		db.Close()
		if _, err := db.Exec(p, "SELECT 1"); err == nil {
			t.Error("Exec after Close succeeded")
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

func TestReadYourWritesOption(t *testing.T) {
	env, db := newDB(t, 9, 1, WithConsistency(proxy.Session))
	db.Cluster().Slaves()[0].Stop() // slave lags forever
	env.Go("app", func(p *sim.Proc) {
		db.Exec(p, "INSERT INTO t (id, v) VALUES (1, 'x')")
		// Pooled handle: the same connection serves the next call, so the
		// watermark applies and the read must not miss the write.
		set, err := db.Query(p, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Errorf("query: %v", err)
			return
		}
		if set.Rows[0][0].Int() != 1 {
			t.Error("session tier did not take effect")
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}
