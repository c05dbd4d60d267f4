package core

import (
	"fmt"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/shard"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// shardedPreload is a partitioned preload over a tiny kv schema: each cell
// creates the full schema but inserts only the rows it owns.
func shardedPreload(rows int) func(owns func(table string, key int64) bool) func(*server.DBServer) error {
	return func(owns func(table string, key int64) bool) func(*server.DBServer) error {
		return func(srv *server.DBServer) error {
			sess := srv.Session("")
			for _, sql := range []string{
				"CREATE DATABASE app",
				"USE app",
				"CREATE TABLE kv (id BIGINT PRIMARY KEY, v VARCHAR(20))",
			} {
				if _, err := srv.ExecFree(sess, sql); err != nil {
					return err
				}
			}
			for i := 1; i <= rows; i++ {
				if !owns("kv", int64(i)) {
					continue
				}
				if _, err := srv.ExecFree(sess, "INSERT INTO kv (id, v) VALUES (?, 'seed')",
					sqlengine.NewInt(int64(i))); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

func openSharded(t *testing.T, seed int64, cells, slaves, rows int, opts ...Option) (*sim.Env, *DB) {
	t.Helper()
	env := sim.NewEnv(seed)
	cl := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	specs := make([]cluster.NodeSpec, slaves)
	for i := range specs {
		specs[i] = cluster.NodeSpec{Place: place}
	}
	db, err := OpenSharded(env, cl, cluster.Config{
		Mode:   repl.Async,
		Cost:   server.DefaultCostModel(),
		Master: cluster.NodeSpec{Place: place},
		Slaves: specs,
	}, append([]Option{
		WithShards(cells),
		WithDatabase("app"),
		WithClientPlace(place),
		WithKeyspace(shard.Keyspace{Key: map[string]string{"kv": "id"}}),
		WithPartitionedPreload(shardedPreload(rows)),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return env, db
}

// TestShardedHandleSurface covers what only a sharded handle has — routed
// and scatter-gather statements, SplitShard, router counters and per-cell
// metric names. Everything the two handle shapes share is TestHandleParity's.
func TestShardedHandleSurface(t *testing.T) {
	const rows = 40
	env, db := openSharded(t, 21, 2, 1, rows)

	env.Go("client", func(p *sim.Proc) {
		// Single-key write and read-back through the routed path.
		if _, err := db.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'new')",
			sqlengine.NewInt(int64(rows+1))); err != nil {
			t.Errorf("routed insert: %v", err)
			return
		}
		rs, err := db.Query(p, "SELECT v FROM kv WHERE id = ?", sqlengine.NewInt(int64(rows+1)))
		if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "new" {
			t.Errorf("routed read-back: rows=%v err=%v", rs, err)
			return
		}
		// Scatter-gather sees the union of all cells.
		rs, err = db.Query(p, "SELECT COUNT(*) FROM kv")
		if err != nil || len(rs.Rows) != 1 {
			t.Errorf("scatter count: %v err=%v", rs, err)
			return
		}
		if got := rs.Rows[0][0].Int(); got != rows+1 {
			t.Errorf("COUNT(*) = %d, want %d", got, rows+1)
		}

		// Online split: one more cell, no lost rows.
		rep, err := db.SplitShard(p)
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if rep.Aborted || db.Shards().NumCells() != 3 {
			t.Errorf("split report %+v, cells = %d", rep, db.Shards().NumCells())
		}
		// Scatter legs read from slaves (async replication), so the new
		// cell's replica converges on the copied rows shortly after cutover.
		deadline := p.Now() + sim.Time(30*time.Second)
		for {
			rs, err = db.Query(p, "SELECT COUNT(*) FROM kv")
			if err == nil && rs.Rows[0][0].Int() == rows+1 {
				break
			}
			if p.Now() >= deadline {
				t.Errorf("post-split COUNT = %v err=%v, want %d", rs, err, rows+1)
				break
			}
			p.Sleep(500 * time.Millisecond)
		}
	})
	env.RunUntil(10 * time.Minute)
	env.Stop()
	env.Shutdown()

	st := db.Stats()
	if st.Shard.SingleKey == 0 || st.Shard.ScatterOps == 0 {
		t.Errorf("Stats().Shard not populated: %+v", st.Shard)
	}
	if st.Shard.Splits != 1 {
		t.Errorf("Stats().Shard.Splits = %d, want 1", st.Shard.Splits)
	}
	if st.Proxy.Errors != 0 {
		t.Errorf("aggregated proxy errors = %d, want 0", st.Proxy.Errors)
	}

	// Per-cell metric namespacing: every cell's components publish under
	// shard.cell<i>.* in the handle's registry.
	snap := db.Metrics()
	for i := 0; i < db.Shards().NumCells(); i++ {
		name := fmt.Sprintf("shard.cell%d.proxy.reads", i)
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %q not published", name)
		}
	}
}
