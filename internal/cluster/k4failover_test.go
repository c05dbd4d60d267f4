package cluster

import (
	"fmt"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// TestProbeK4Failover: two slaves with a K = 4 applier each, six readers per
// slave competing with the appliers for CPU, eight writers inserting unique
// keys over three tables; the master dies once both slaves have run at least
// two statements above their applied low-water mark. The survivor must take
// no apply error and hold the promoted master's rows: Failover must not
// re-ship the statements that ran ahead of the mark, or they fail as
// duplicate keys.
func TestProbeK4Failover(t *testing.T) {
	env := sim.NewEnv(29)
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	clu, err := New(env, cloud.New(env, cloud.Config{}), Config{
		Cost:     server.DefaultCostModel(),
		Master:   NodeSpec{Place: place},
		Slaves:   []NodeSpec{{Place: place}, {Place: place}},
		Pipeline: repl.PipelineConfig{ApplyWorkers: 4},
		Preload: func(srv *server.DBServer) error {
			sess := srv.Session("")
			stmts := []string{"CREATE DATABASE app"}
			for i := 0; i < 3; i++ {
				stmts = append(stmts, fmt.Sprintf("CREATE TABLE app.t%d (id BIGINT PRIMARY KEY, v BIGINT)", i))
			}
			for _, sql := range stmts {
				if _, err := srv.ExecFree(sess, sql); err != nil {
					return err
				}
			}
			// Enough rows that a reader's scan is worth some CPU.
			for i := 0; i < 3; i++ {
				for k := 0; k < 400; k++ {
					if _, err := srv.ExecFree(sess, fmt.Sprintf("INSERT INTO app.t%d (id, v) VALUES (?, 0)", i),
						sqlengine.NewInt(int64(-1-k))); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := clu.Master()
	base := clu.basePos
	stop := false
	for w := 0; w < 8; w++ {
		w := w
		env.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			sess := m.Srv.Session("app")
			for k := 0; !stop; k++ {
				id := int64(w*1_000_000 + k)
				if _, err := m.Srv.Exec(p, sess, fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (?, 1)", w%3), sqlengine.NewInt(id)); err != nil {
					return // the master is gone
				}
				p.Sleep(time.Duration(1+p.Rand().Intn(5)) * time.Millisecond)
			}
		})
	}
	for _, sl := range clu.Slaves() {
		srv := sl.Srv
		for r := 0; r < 6; r++ {
			r := r
			env.Go(fmt.Sprintf("%s/reader%d", srv.Name, r), func(p *sim.Proc) {
				sess := srv.Session("app")
				for !stop {
					if _, err := srv.Exec(p, sess, fmt.Sprintf("SELECT COUNT(*) FROM t%d WHERE v = 0", r%3)); err != nil {
						return
					}
				}
			})
		}
	}
	ahead := func(sl *repl.Slave) int64 {
		return int64(sl.Srv.Stats().Applied) - int64(sl.AppliedSeq()-base)
	}
	crashed := false
	env.Go("crash", func(p *sim.Proc) {
		for ; p.Now() < 30*time.Second; p.Sleep(100 * time.Microsecond) {
			if p.Now() < time.Second {
				continue
			}
			n := 0
			for _, sl := range clu.Slaves() {
				if ahead(sl) >= 2 {
					n++
				}
			}
			if n < 2 {
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
	env.RunUntil(40 * time.Second)
	stop = true
	env.RunUntil(2 * time.Minute)
	env.Stop()
	env.Shutdown()
	if !crashed {
		t.Fatal("never caught both slaves two statements ahead of their mark")
	}
	want := clu.Master().Srv.Eng.Digest()
	for _, sl := range clu.Slaves() {
		if n := sl.ApplyErrors(); n != 0 {
			t.Errorf("survivor %s: %d apply error(s); want 0", sl.Srv.Name, n)
		}
		if got := sl.Srv.Eng.Digest(); got != want {
			t.Errorf("survivor %s holds\n%s\nthe promoted master\n%s", sl.Srv.Name, got, want)
		}
	}
}
