// Quickstart: build an application-managed replicated database tier — one
// master and two slaves on simulated EC2 small instances — then write
// through the master, read through the slaves, and watch replication lag.
//
//	go run ./examples/quickstart
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

func main() {
	env := sim.NewEnv(42)
	provider := cloud.New(env, cloud.DefaultConfig())
	zone := cloud.Placement{Region: cloud.USWest1, Zone: "a"}

	// The master loads the schema; replicas start from its image.
	preload := func(srv *server.DBServer) error {
		sess := srv.Session("")
		for _, ddl := range []string{
			"CREATE DATABASE app",
			"CREATE TABLE app.notes (id BIGINT PRIMARY KEY, body VARCHAR(100), created TIMESTAMP)",
		} {
			if _, err := srv.ExecFree(sess, ddl); err != nil {
				return err
			}
		}
		return nil
	}

	clu, err := cluster.New(env, provider, cluster.Config{
		Mode:    repl.Async,
		Cost:    server.DefaultCostModel(),
		Master:  cluster.NodeSpec{Place: zone},
		Slaves:  []cluster.NodeSpec{{Place: zone}, {Place: zone}},
		Preload: preload,
	})
	if err != nil {
		log.Fatal(err)
	}

	db := core.Open(clu, core.WithDatabase("app"), core.WithClientPlace(zone))

	env.Go("app", func(p *sim.Proc) {
		// Writes are routed to the master.
		for i := 1; i <= 5; i++ {
			if _, err := db.Exec(p, "INSERT INTO notes (id, body, created) VALUES (?, ?, UTC_MICROS())",
				sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("note %d", i))); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("[%6s] wrote 5 notes to the master\n", p.Now().Round(time.Millisecond))

		// Right after the writes the slaves may still be catching up.
		st := db.Staleness()
		for _, sl := range st.Slaves {
			fmt.Printf("[%6s] %s is %d binlog events behind\n",
				p.Now().Round(time.Millisecond), sl.Name, sl.EventsBehind)
		}

		// Reads are balanced over the slaves; wait for replication so the
		// count is fresh.
		db.WaitCaughtUp(p, time.Minute)
		set, err := db.Query(p, "SELECT COUNT(*) FROM notes")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%6s] a slave sees %s notes (replication caught up)\n",
			p.Now().Round(time.Millisecond), set.Rows[0][0])

		// The application can scale the read tier at runtime.
		spec := cluster.NodeSpec{Place: cloud.Placement{Region: cloud.USWest1, Zone: "b"}}
		if err := db.Scale(p, +1, core.ScaleOpts{Spec: spec}); err != nil {
			log.Fatal(err)
		}
		db.WaitCaughtUp(p, time.Minute)
		fmt.Printf("[%6s] scaled out to %d slaves; max staleness now %d events\n",
			p.Now().Round(time.Millisecond), len(db.Cluster().Slaves()), db.Staleness().MaxEvents)
	})

	env.Run()
}
