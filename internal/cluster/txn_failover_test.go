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

// TestFailoverInTheMiddleOfACommit: with per-commit shipping (no batching),
// the master commits a transaction of two INSERTs, one into t and one into
// u, and dies the instant its first transit of that commit leaves — a
// transit per entry would have shipped half of it, to one slave at least. A
// second later the cluster fails over. Every survivor, the promoted master
// included, must hold whole commits only (equal counts in t and u) as the
// promotion happens and after the new master has taken one more commit;
// then the survivors must have converged on the promoted master's contents
// and taken no apply error. Under semi-sync every commit before the crash
// must have come back acknowledged.
func TestFailoverInTheMiddleOfACommit(t *testing.T) {
	for _, mode := range []repl.Mode{repl.Async, repl.SemiSync} {
		t.Run(mode.String(), func(t *testing.T) {
			env := sim.NewEnv(52)
			defer env.Shutdown()
			place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
			clu, err := New(env, cloud.New(env, cloud.Config{}), Config{
				Mode:   mode,
				Cost:   server.DefaultCostModel(),
				Master: NodeSpec{Place: place},
				Slaves: []NodeSpec{{Place: place}, {Place: place}},
				Preload: func(srv *server.DBServer) error {
					sess := srv.Session("")
					for _, sql := range []string{
						"CREATE DATABASE app",
						"CREATE TABLE app.t (id BIGINT PRIMARY KEY, v BIGINT)",
						"CREATE TABLE app.u (id BIGINT PRIMARY KEY, v BIGINT)",
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
			// commit runs one two-table transaction on m's server.
			commit := func(p *sim.Proc, m *repl.Master, k int64) bool {
				sess := m.Srv.Session("app")
				for _, sql := range []string{"BEGIN", "INSERT INTO t (id, v) VALUES (?, 1)", "INSERT INTO u (id, v) VALUES (?, 1)", "COMMIT"} {
					var args []sqlengine.Value
					if sql[0] == 'I' {
						args = []sqlengine.Value{sqlengine.NewInt(k)}
					}
					if _, err := m.Srv.Exec(p, sess, sql, args...); err != nil {
						t.Errorf("%s on %s: %v", sql, m.Srv.Name, err)
						return false
					}
				}
				return m.WaitCommitted(p, m.Srv.Log.LastSeq())
			}
			// whole fails the test if a server holds part of a commit.
			whole := func(srv *server.DBServer, when string) {
				var n [2]int64
				for i, table := range []string{"t", "u"} {
					set, err := srv.Session("app").Query("SELECT COUNT(*) FROM " + table)
					if err != nil {
						t.Error(err)
						return
					}
					n[i] = set.Rows[0][0].Int()
				}
				if n[0] != n[1] {
					t.Errorf("%s %s holds part of a commit: %d rows in t, %d in u", when, srv.Name, n[0], n[1])
				}
			}
			crashed := false
			env.Go("writer", func(p *sim.Proc) {
				m := clu.Master()
				for k := int64(1); k <= 5; k++ {
					if !commit(p, m, k) {
						t.Errorf("commit %d unacknowledged", k)
					}
					p.Sleep(time.Second)
				}
				// The sixth commit: the master dies as its first transit
				// leaves.
				shipped := m.Stats().BatchesShipped
				env.Go("crash", func(p *sim.Proc) {
					for m.Stats().BatchesShipped == shipped {
						p.Sleep(10 * time.Microsecond)
					}
					m.Srv.Inst.Terminate()
					crashed = true
					p.Sleep(time.Second)
					promoted, dropped, err := clu.Failover()
					if err != nil || len(dropped) != 0 {
						t.Errorf("failover: err %v, dropped %d", err, len(dropped))
						return
					}
					whole(promoted.Srv, "at promotion")
					for _, sl := range promoted.Slaves() {
						whole(sl.Srv, "at promotion")
					}
					commit(p, promoted, 7)
				})
				commit(p, m, 6)
			})
			env.RunUntil(time.Minute)
			if !crashed {
				t.Fatal("the master never shipped the sixth commit")
			}

			m := clu.Master()
			want := m.Srv.Eng.Digest("heartbeat")
			whole(m.Srv, "at the end")
			for _, sl := range clu.Slaves() {
				whole(sl.Srv, "at the end")
				if got := sl.Srv.Eng.Digest("heartbeat"); got != want {
					t.Errorf("%s holds\n%s\nthe promoted master\n%s", sl.Srv.Name, got, want)
				}
				if n := sl.ApplyErrors(); n != 0 {
					t.Errorf("%s: %d apply error(s)", sl.Srv.Name, n)
				}
			}
		})
	}
}
