// Pipeline: the replication data path upgrades, side by side. Two identical
// clusters take the same write burst while readers hammer their replicas;
// one runs the classic path (per-statement fsync, one network transit per
// binlog event, a single SQL applier), the other the full pipeline (group
// commit, batched shipping, four conflict-tracked apply workers). The
// pipelined replica drains its backlog far sooner even though both apply
// the exact same statements in the exact same commit order.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func run(name string, pc repl.PipelineConfig) {
	env := sim.NewEnv(11)
	provider := cloud.New(env, cloud.DefaultConfig())
	zone := cloud.Placement{Region: cloud.USWest1, Zone: "a"}

	preload := func(srv *server.DBServer) error {
		sess := srv.Session("")
		for _, ddl := range []string{
			"CREATE DATABASE shop",
			"CREATE TABLE shop.orders (id BIGINT PRIMARY KEY, item VARCHAR(40))",
			"CREATE TABLE shop.events (id BIGINT PRIMARY KEY, kind VARCHAR(40))",
		} {
			if _, err := srv.ExecFree(sess, ddl); err != nil {
				return err
			}
		}
		return nil
	}
	clu, err := cluster.New(env, provider, cluster.Config{
		Mode:     repl.Async,
		Cost:     server.DefaultCostModel(),
		Master:   cluster.NodeSpec{Place: zone},
		Slaves:   []cluster.NodeSpec{{Place: zone}},
		Preload:  preload,
		Pipeline: pc,
	})
	if err != nil {
		log.Fatal(err)
	}
	db := core.Open(clu, core.WithDatabase("shop"), core.WithClientPlace(zone))
	sl := clu.Slaves()[0]

	// Six readers keep the replica's only vCPU busy — the contention that
	// makes the classic single applier drain one statement per CPU-queue
	// round trip.
	for i := 0; i < 6; i++ {
		sess := sl.Srv.Session("shop")
		env.Go("reader", func(p *sim.Proc) {
			for {
				if _, err := sl.Srv.Exec(p, sess, "SELECT COUNT(*) FROM orders"); err != nil {
					return
				}
			}
		})
	}

	// A burst of 40 writes alternating between two tables: disjoint write
	// sets, so the parallel applier may overlap them.
	const writes = 40
	base := clu.Master().Srv.Log.LastSeq()
	for i := 0; i < writes; i++ {
		stmt := "INSERT INTO orders (id, item) VALUES (?, 'widget')"
		if i%2 == 0 {
			stmt = "INSERT INTO events (id, kind) VALUES (?, 'click')"
		}
		id := sqlengine.NewInt(int64(i))
		env.Go("writer", func(p *sim.Proc) {
			if _, err := db.Exec(p, stmt, id); err != nil {
				log.Fatal(err)
			}
		})
	}

	var drained sim.Time
	env.Go("watch", func(p *sim.Proc) {
		for sl.AppliedSeq() < base+writes {
			p.Sleep(50 * time.Millisecond)
		}
		drained = p.Now()
	})

	env.RunUntil(5 * time.Minute)
	env.Stop()
	env.Shutdown()

	st := db.Stats().Repl
	fmt.Printf("%-14s replica drained %d writes at t=%-8v", name, writes, drained.Round(10*time.Millisecond))
	fmt.Printf("  group-commits=%-3d batches=%-3d entries=%d\n",
		st.GroupCommits, st.BatchesShipped, st.EntriesShipped)
}

func main() {
	run("classic", repl.PipelineConfig{})
	run("full-pipeline", repl.PipelineConfig{
		GroupCommitWindow: 60 * time.Millisecond,
		BatchMaxEntries:   32,
		ApplyWorkers:      4,
	})
}
