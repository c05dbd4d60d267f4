package core

import (
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// handleShape opens the same kv schema behind either constructor.
type handleShape struct {
	name  string
	cells int
	open  func(t *testing.T, seed int64, slavesPerCell int, opts ...Option) (*sim.Env, *DB)
}

var handleShapes = []handleShape{
	{"open", 1, func(t *testing.T, seed int64, slaves int, opts ...Option) (*sim.Env, *DB) {
		t.Helper()
		env := sim.NewEnv(seed)
		cl := cloud.New(env, cloud.Config{})
		place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
		specs := make([]cluster.NodeSpec, slaves)
		for i := range specs {
			specs[i] = cluster.NodeSpec{Place: place}
		}
		clu, err := cluster.New(env, cl, cluster.Config{
			Mode:    repl.Async,
			Cost:    server.DefaultCostModel(),
			Master:  cluster.NodeSpec{Place: place},
			Slaves:  specs,
			Preload: shardedPreload(parityRows)(func(string, int64) bool { return true }),
		})
		if err != nil {
			t.Fatal(err)
		}
		return env, Open(clu, append([]Option{WithDatabase("app"), WithClientPlace(place)}, opts...)...)
	}},
	{"sharded", 2, func(t *testing.T, seed int64, slaves int, opts ...Option) (*sim.Env, *DB) {
		t.Helper()
		return openSharded(t, seed, 2, slaves, parityRows, opts...)
	}},
}

const parityRows = 16

// slaveCounts is the number of attached replicas per cell.
func slaveCounts(db *DB) (perCell []int) {
	for _, c := range db.cells() {
		perCell = append(perCell, len(c.Clu.Slaves()))
	}
	return perCell
}

// TestHandleParity runs one script against a handle from Open and against a
// 2-cell handle from OpenSharded: whatever does not route a statement must
// behave the same on both, cell by cell.
func TestHandleParity(t *testing.T) {
	for _, shape := range handleShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			env, db := shape.open(t, 41, 2)
			place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
			spec := ScaleOpts{Spec: cluster.NodeSpec{Place: place}}
			id := func(i int) sqlengine.Value { return sqlengine.NewInt(int64(parityRows + i)) }
			var shipped uint64 // Stats().Repl.EntriesShipped before the failover resets it

			env.Go("script", func(p *sim.Proc) {
				// Exec / WaitCaughtUp / Query.
				if _, err := db.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'new')", id(1)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if !db.WaitCaughtUp(p, time.Minute) {
					t.Error("slaves never caught up")
					return
				}
				rs, err := db.Query(p, "SELECT v FROM kv WHERE id = ?", id(1))
				if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "new" {
					t.Errorf("read-back: rows=%v err=%v", rs, err)
				}

				// Staleness lists every cell's slaves; all caught up.
				if st := db.Staleness(); len(st.Slaves) != 2*shape.cells || st.MaxEvents != 0 {
					t.Errorf("staleness: %+v, want %d caught-up slaves", st, 2*shape.cells)
				}

				// ValidateInstances: every master, then every slave.
				reports := db.ValidateInstances(p, 5)
				if len(reports) != 3*shape.cells {
					t.Errorf("ValidateInstances: %d reports, want %d", len(reports), 3*shape.cells)
				}
				for _, r := range reports {
					if r.Speed < 0.99 || r.Speed > 1.01 { // homogeneous test cloud
						t.Errorf("%s speed %v, want ≈1", r.Name, r.Speed)
					}
				}

				// Scale(+2) spreads over the cells instead of stacking on one.
				if err := db.Scale(2, spec); err != nil {
					t.Errorf("scale out: %v", err)
					return
				}
				for i, n := range slaveCounts(db) {
					if want := 2 + 2/shape.cells; n != want {
						t.Errorf("cell %d has %d slaves after Scale(+2), want %d", i, n, want)
					}
				}
				if !db.WaitCaughtUp(p, time.Minute) {
					t.Error("slaves never caught up after scaling")
				}

				shipped = db.Stats().Repl.EntriesShipped

				// Failover: only the cell whose master died promotes.
				last := db.cells()[shape.cells-1]
				dead := last.Clu.Master().Srv
				dead.Inst.Terminate()
				if err := db.Failover(); err != nil {
					t.Errorf("failover: %v", err)
					return
				}
				for i, c := range db.cells() {
					if !c.Clu.Master().Srv.Up() {
						t.Errorf("cell %d: master %s is down", i, c.Clu.Master().Srv.Name)
					}
					if moved := c.Clu.Master().Epoch != 0; moved != (c == last) {
						t.Errorf("cell %d: promoted=%v, want %v", i, moved, c == last)
					}
				}
				if err := db.Failover(); err != nil { // nothing is down: a no-op
					t.Errorf("second failover: %v", err)
				}
				if last.Clu.Master().Epoch != 1 {
					t.Errorf("a Failover with every master up promoted again (epoch %d)", last.Clu.Master().Epoch)
				}
				// Keys land on every cell: a proxy still pointing at the dead
				// master fails its cell's writes.
				for i := 2; i < 10; i++ {
					if _, err := db.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'post')", id(i)); err != nil {
						t.Errorf("write %d after failover: %v", i, err)
					}
				}
			})
			env.RunUntil(10 * time.Minute)
			env.Stop()
			env.Shutdown()

			// Stats: the script issued 9 single-key writes and 1 single-key
			// read, whichever cells served them.
			st := db.Stats()
			if st.Proxy.Writes != 9 || st.Proxy.Reads != 1 || st.Proxy.Errors != 0 {
				t.Errorf("proxy stats: %+v", st.Proxy)
			}
			if st.Pool.Borrows != 10 || st.Pool.Returns != 10 {
				t.Errorf("pool stats: %+v", st.Pool)
			}
			// The one documented difference: replication counters sit in
			// Stats.Repl on a handle from Open, router counters in
			// Stats.Shard on a sharded one, and proxy/repl metric names carry
			// the cell there.
			snap := db.Metrics()
			proxyWrites := "proxy.writes"
			if db.Shards() != nil {
				proxyWrites = "shard.cell0.proxy.writes"
				if st.Shard.SingleKey != 10 {
					t.Errorf("router single-key statements = %d, want 10", st.Shard.SingleKey)
				}
			} else if shipped == 0 {
				t.Error("Stats().Repl not populated")
			}
			for _, name := range []string{proxyWrites, "client.exec.count", "pool.borrows", "repl.max_events_behind", "sqlengine.gc.runs"} {
				if _, ok := snap[name]; !ok {
					t.Errorf("metric %q not published", name)
				}
			}
			if snap["client.exec.count"] != 10 {
				t.Errorf("client.exec.count = %v, want 10", snap["client.exec.count"])
			}
		})
	}
}

// countingBalancer is a round-robin that counts its picks and remembers the
// masters whose reads it routed.
type countingBalancer struct {
	proxy.RoundRobin
	picks   int
	masters map[*repl.Master]bool
}

func (b *countingBalancer) Pick(ctx *proxy.PickContext) *repl.Slave {
	b.picks++
	b.masters[ctx.Master] = true
	return b.RoundRobin.Pick(ctx)
}

// TestWithBalancerOnEitherShape: the balancer constructor builds one
// instance per cell and that instance routes the cell's reads. OpenSharded
// used to drop the option on the floor.
func TestWithBalancerOnEitherShape(t *testing.T) {
	for _, shape := range handleShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			var built []*countingBalancer
			env, db := shape.open(t, 43, 1, WithBalancer(func() proxy.Balancer {
				b := &countingBalancer{masters: map[*repl.Master]bool{}}
				built = append(built, b)
				return b
			}))
			env.Go("reads", func(p *sim.Proc) {
				for i := 1; i <= parityRows; i++ { // keys land on every cell
					if _, err := db.Query(p, "SELECT v FROM kv WHERE id = ?", sqlengine.NewInt(int64(i))); err != nil {
						t.Errorf("read %d: %v", i, err)
					}
				}
			})
			env.RunUntil(time.Minute)
			env.Stop()
			env.Shutdown()

			if len(built) != shape.cells {
				t.Fatalf("constructor ran %d times for %d cell(s)", len(built), shape.cells)
			}
			picks := 0
			for i, c := range db.cells() {
				for m := range built[i].masters {
					if m != c.Clu.Master() {
						t.Errorf("cell %d's balancer routed a read for %s", i, m.Srv.Name)
					}
				}
				if built[i].picks == 0 {
					t.Errorf("cell %d's balancer never picked", i)
				}
				picks += built[i].picks
			}
			if picks != parityRows {
				t.Errorf("%d picks for %d reads", picks, parityRows)
			}
		})
	}
}
