package cloudstone

import (
	"math"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func newBench(t *testing.T, seed int64, nSlaves, scale int) (*sim.Env, *core.DB) {
	t.Helper()
	env := sim.NewEnv(seed)
	db, err := openBench(env, nSlaves, scale)
	if err != nil {
		t.Fatal(err)
	}
	return env, db
}

// openBench opens a one-cell handle on a master and nSlaves replicas, all
// preloaded at scale.
func openBench(env *sim.Env, nSlaves, scale int) (*core.DB, error) {
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
		Preload: Preload(scale),
	})
	if err != nil {
		return nil, err
	}
	return core.Open(clu, core.WithDatabase(DatabaseName), core.WithClientPlace(place)), nil
}

func TestPreloadPopulatesAllTables(t *testing.T) {
	env, db := newBench(t, 1, 0, 50)
	srv := db.Cluster().Master().Srv
	sess := srv.Session(DatabaseName)
	cases := map[string]int64{
		"users":      50,
		"events":     50,
		"attendance": 100,
		"tags":       NumTags,
		"event_tags": 100,
		"comments":   50,
	}
	for table, want := range cases {
		set, err := sess.Query("SELECT COUNT(*) FROM " + table)
		if err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		if got := set.Rows[0][0].Int(); got != want {
			t.Errorf("%s: %d rows, want %d", table, got, want)
		}
	}
	_ = env
}

func TestPreloadDeterministicAcrossServers(t *testing.T) {
	// Master and slaves preload independently; byte-identical content is a
	// precondition for statement-based replication to stay consistent.
	env, db := newBench(t, 2, 1, 30)
	m := db.Cluster().Master().Srv.Session(DatabaseName)
	s := db.Cluster().Slaves()[0].Srv.Session(DatabaseName)
	for _, q := range []string{
		"SELECT COUNT(*) FROM events",
		"SELECT title FROM events WHERE id = 17",
		"SELECT username FROM users WHERE id = 3",
	} {
		a, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rows[0][0].String() != b.Rows[0][0].String() {
			t.Fatalf("%s differs: %v vs %v", q, a.Rows[0][0], b.Rows[0][0])
		}
	}
	_ = env
}

func TestAllOperationsExecuteCleanly(t *testing.T) {
	env, db := newBench(t, 3, 1, 40)
	d := NewDriver(db, Config{Scale: 40, ReadRatio: 0.5, Users: 1,
		RampUp: time.Millisecond, Steady: time.Hour, RampDown: time.Millisecond})
	// Execute each op shape many times directly.
	env.Go("ops", func(p *sim.Proc) {
		rng := p.Rand()
		for i := 0; i < 200; i++ {
			var o op
			if i%2 == 0 {
				o = d.readOp(rng)
			} else {
				o = d.writeOp(rng)
			}
			if _, err := db.Exec(p, o.sql, o.args...); err != nil {
				t.Errorf("op %s: %v", o.name, err)
				return
			}
		}
	})
	env.RunUntil(2 * time.Hour)
	env.Stop()
	env.Shutdown()
}

func TestDriverMaintainsReadWriteRatio(t *testing.T) {
	env, db := newBench(t, 4, 2, 60)
	d := NewDriver(db, Config{
		Scale: 60, ReadRatio: 0.8, Users: 20,
		RampUp: time.Minute, Steady: 10 * time.Minute, RampDown: 30 * time.Second,
	})
	d.Start(env)
	env.RunUntil(12 * time.Minute)
	res := d.Result()
	total := res.Reads + res.Writes
	if total < 100 {
		t.Fatalf("too few steady ops: %d", total)
	}
	ratio := float64(res.Reads) / float64(total)
	if math.Abs(ratio-0.8) > 0.05 {
		t.Fatalf("read ratio = %.3f, want ≈0.80", ratio)
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %d", res.Errors)
	}
	env.Stop()
	env.Shutdown()
}

func TestThroughputCountsOnlySteadyWindow(t *testing.T) {
	env, db := newBench(t, 5, 1, 30)
	d := NewDriver(db, Config{
		Scale: 30, ReadRatio: 0.5, Users: 28,
		RampUp: 2 * time.Minute, Steady: 4 * time.Minute, RampDown: time.Minute,
	})
	d.Start(env)
	env.RunUntil(7*time.Minute + 30*time.Second)
	res := d.Result()
	// 28 users at ~7s cycle ≈ 4 ops/s for 240s ≈ 960 ops. If ramp phases
	// leaked into the count, it would exceed this bound substantially.
	if res.Reads+res.Writes > 1200 {
		t.Fatalf("steady count %d includes ramp phases", res.Reads+res.Writes)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput measured")
	}
	env.Stop()
	env.Shutdown()
}

// TestStagedWindowSpansRamp: a staged run is measured from the first stage's
// first instant to the last stage's last — [start, start + Σ Dur) — and its
// throughput is every operation of the ramp over the ramp's length.
func TestStagedWindowSpansRamp(t *testing.T) {
	env, db := newBench(t, 8, 1, 30)
	env.RunUntil(time.Minute) // a run need not start at zero
	stages := []Stage{{Users: 2, Dur: 3 * time.Minute}, {Users: 4, Dur: 3 * time.Minute}}
	d := NewDriver(db, Config{Scale: 30, ReadRatio: 0.5, Stages: stages})
	start := env.Now()
	d.Start(env)
	if from, to := d.SteadyWindow(); from != start || to != start+6*time.Minute {
		t.Fatalf("window [%v, %v), want [%v, %v)", time.Duration(from), time.Duration(to), time.Duration(start), time.Duration(start+6*time.Minute))
	}
	env.RunUntil(start + 6*time.Minute)
	res := d.Result()
	if n := res.Reads + res.Writes; n == 0 || n+res.Errors != d.CompletedOps()+d.TotalErrors() {
		t.Errorf("window counted %d operations and %d errors of the ramp's %d and %d", n, res.Errors, d.CompletedOps(), d.TotalErrors())
	}
	if want := float64(res.Reads+res.Writes) / 360; res.Throughput != want {
		t.Errorf("throughput %.3f ops/s, want %.3f: the ramp's operations over its six minutes", res.Throughput, want)
	}
	env.Stop()
	env.Shutdown()
}

func TestUsersStaggerAcrossRampUp(t *testing.T) {
	env, db := newBench(t, 6, 0, 30)
	d := NewDriver(db, Config{
		Scale: 30, ReadRatio: 0.5, Users: 70,
		RampUp: 10 * time.Minute, Steady: time.Minute, RampDown: time.Minute,
	})
	d.Start(env)
	// After a tenth of ramp-up, only a tenth of the users have started (≈35
	// operations; all seventy would have made ≈600): master ops stay low.
	env.RunUntil(time.Minute)
	early := db.Cluster().Master().Srv.Stats()
	if early.Reads+early.Writes > 130 {
		t.Fatalf("too many ops during early ramp: %+v", early)
	}
	env.RunUntil(12 * time.Minute)
	late := db.Cluster().Master().Srv.Stats()
	if late.Reads+late.Writes <= early.Reads+early.Writes {
		t.Fatal("no additional load after ramp-up completed")
	}
	env.Stop()
	env.Shutdown()
}

func TestWritesReplicateDuringBenchmark(t *testing.T) {
	env, db := newBench(t, 7, 2, 40)
	d := NewDriver(db, Config{
		Scale: 40, ReadRatio: 0.2, Users: 35, // write-heavy for signal
		RampUp: 30 * time.Second, Steady: 3 * time.Minute, RampDown: 30 * time.Second,
	})
	d.Start(env)
	env.RunUntil(10 * time.Minute)
	m := db.Cluster().Master().Srv.Session(DatabaseName)
	mc, _ := m.Query("SELECT COUNT(*) FROM attendance")
	for _, sl := range db.Cluster().Slaves() {
		sc, err := sl.Srv.Session(DatabaseName).Query("SELECT COUNT(*) FROM attendance")
		if err != nil {
			t.Fatal(err)
		}
		if sc.Rows[0][0].Int() != mc.Rows[0][0].Int() {
			t.Fatalf("slave attendance %v != master %v after quiesce",
				sc.Rows[0][0], mc.Rows[0][0])
		}
		if sl.ApplyErrors() != 0 {
			t.Fatalf("apply errors: %d", sl.ApplyErrors())
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestLiveInsertIDsDoNotCollideWithSeed(t *testing.T) {
	env, db := newBench(t, 9, 0, 30)
	d := NewDriver(db, Config{Scale: 30, ReadRatio: 0, Users: 28,
		RampUp: time.Second, Steady: 5 * time.Minute, RampDown: time.Second})
	d.Start(env)
	env.RunUntil(5*time.Minute + 2*time.Second)
	res := d.Result()
	if res.Errors != 0 {
		t.Fatalf("write errors (likely id collisions): %d", res.Errors)
	}
	if res.Writes == 0 {
		t.Fatal("no writes executed")
	}
	if res.Reads != 0 {
		t.Fatalf("a read ratio of 0 ran %d reads", res.Reads)
	}
	env.Stop()
	env.Shutdown()
}

func TestResultPerOpBreakdown(t *testing.T) {
	env, db := newBench(t, 10, 0, 30)
	d := NewDriver(db, Config{Scale: 30, ReadRatio: 0.5, Users: 35,
		RampUp: time.Second, Steady: 10 * time.Minute, RampDown: time.Second})
	d.Start(env)
	env.RunUntil(10*time.Minute + 2*time.Second)
	res := d.Result()
	var sum int
	for _, n := range res.PerOp {
		sum += n
	}
	if sum != res.Reads+res.Writes {
		t.Fatalf("per-op sum %d != total %d", sum, res.Reads+res.Writes)
	}
	if len(res.PerOp) < 8 {
		t.Fatalf("only %d distinct op types observed: %v", len(res.PerOp), res.PerOp)
	}
	env.Stop()
	env.Shutdown()
}

func TestOpsUseParameters(t *testing.T) {
	// Guard against accidental string concatenation of values: every op
	// must carry args matching its placeholder count. A read is run and a
	// write logged, and each refuses an argument vector of the wrong length.
	env, db := newBench(t, 11, 0, 30)
	_ = env
	d := NewDriver(db, Config{Scale: 30})
	eng := sqlengine.NewEngine()
	if err := LoadSQL(eng, 30); err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession(DatabaseName)
	rng := sim.NewEnv(1).Rand()
	for i := 0; i < 100; i++ {
		read, write := d.readOp(rng), d.writeOp(rng)
		stmt, err := eng.Prepare(read.sql)
		if err == nil {
			_, err = stmt.Run(sess, read.args...)
		}
		if err != nil {
			t.Fatalf("%s: %v", read.name, err)
		}
		if stmt, err = eng.Prepare(write.sql); err == nil {
			_, err = stmt.Logged(write.args)
		}
		if err != nil {
			t.Fatalf("%s: %v", write.name, err)
		}
	}
}
