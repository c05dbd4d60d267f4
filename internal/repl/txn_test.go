package repl

import (
	"fmt"
	"testing"
	"time"

	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// TestReplicaNeverShowsHalfATransaction is the consistent-prefix probe: the
// master commits BEGIN, an INSERT into t, an INSERT into u, COMMIT, over and
// over, and a watcher on each replica counts both tables every 50 µs of
// virtual time for 5 s. A poll that finds the counts unequal saw part of a
// commit. Every arm — async and semi-sync, one applier and four — runs a
// slave of the master and a leaf cascaded off that slave, which replicates
// the slave's own binlog: the commit must keep its boundary there too. Under
// semi-sync every COMMIT must come back acknowledged. The run ends with the
// replicas converged on the master.
//
// The transaction writes two tables so that the four-worker arm can catch a
// commit split across workers: a one-table transaction serialises on its
// table whoever applies it.
func TestReplicaNeverShowsHalfATransaction(t *testing.T) {
	for _, arm := range []struct {
		mode    Mode
		workers int
	}{{Async, 1}, {SemiSync, 1}, {Async, 4}, {SemiSync, 4}} {
		t.Run(fmt.Sprintf("%s/K=%d", arm.mode, arm.workers), func(t *testing.T) {
			pc := PipelineConfig{ApplyWorkers: arm.workers}
			r := newPipelineRig(t, 52, 1, arm.mode, sameZone(), pc)
			defer r.env.Shutdown()
			m, slave := r.master, r.slaves[0]

			leafSrv := server.New(r.env, "leaf", r.cloud.Launch("leaf", slave.Srv.Inst.Type, sameZone()), server.DefaultCostModel())
			sess := leafSrv.Session("")
			for _, sql := range []string{
				"CREATE DATABASE app",
				"CREATE TABLE app.t (id BIGINT PRIMARY KEY, v VARCHAR(40))",
				"CREATE TABLE app.u (id BIGINT PRIMARY KEY, v VARCHAR(40))",
			} {
				if _, err := leafSrv.ExecFree(sess, sql); err != nil {
					t.Fatal(err)
				}
			}
			relay := NewMaster(r.env, slave.Srv, r.cloud.Network(), Async)
			relay.Pipeline = pc
			leaf := NewSlave(r.env, leafSrv)
			if err := relay.Attach(leaf, Executed{Low: slave.Srv.Log.LastSeq()}); err != nil {
				t.Fatal(err)
			}

			const run = 5 * time.Second
			commits, unacked := 0, 0
			r.env.Go("writer", func(p *sim.Proc) {
				sess := m.Srv.Session("app")
				for k := int64(1); p.Now() < run; k++ {
					for _, sql := range []string{"BEGIN", "INSERT INTO t (id, v) VALUES (?, 'x')", "INSERT INTO u (id, v) VALUES (?, 'x')", "COMMIT"} {
						var args []sqlengine.Value
						if sql[0] == 'I' {
							args = []sqlengine.Value{sqlengine.NewInt(k)}
						}
						if _, err := m.Srv.Exec(p, sess, sql, args...); err != nil {
							t.Errorf("%s: %v", sql, err)
							return
						}
					}
					if !m.WaitCommitted(p, m.Srv.Log.LastSeq()) {
						unacked++
					}
					commits++
					p.Sleep(50 * time.Millisecond)
				}
			})
			polls, halves := 0, map[string]int{}
			for _, srv := range []*server.DBServer{slave.Srv, leafSrv} {
				sess := srv.Session("app")
				count := func(table string) int64 {
					set, err := sess.Query("SELECT COUNT(*) FROM " + table)
					if err != nil {
						t.Error(err)
						return -1
					}
					return set.Rows[0][0].Int()
				}
				r.env.Go(srv.Name+"/watcher", func(p *sim.Proc) {
					for ; p.Now() < run; p.Sleep(50 * time.Microsecond) {
						polls++
						if count("t") != count("u") {
							halves[srv.Name]++
						}
					}
				})
			}
			r.env.RunUntil(run + time.Minute)

			t.Logf("%d commits; %d polls; half a commit seen %v", commits, polls, halves)
			if len(halves) != 0 {
				t.Errorf("a replica showed half a transaction: %v polls of %d", halves, polls)
			}
			if commits < 15 || unacked != 0 {
				t.Errorf("%d commits, %d of them unacknowledged; want ≥ 15, none", commits, unacked)
			}
			want := m.Srv.Eng.Digest("heartbeat")
			for _, sl := range []*Slave{slave, leaf} {
				if got := sl.Srv.Eng.Digest("heartbeat"); got != want {
					t.Errorf("%s holds\n%s\nthe master\n%s", sl.Srv.Name, got, want)
				}
				if n := sl.ApplyErrors(); n != 0 {
					t.Errorf("%s: %d apply error(s)", sl.Srv.Name, n)
				}
			}
		})
	}
}
