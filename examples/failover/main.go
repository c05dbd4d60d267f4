// Failover: the application-managed cluster loses its master mid-traffic,
// promotes the most-up-to-date slave, re-points the proxy and keeps
// serving — including the documented risk of asynchronous replication:
// writes the promoted slave had not yet applied are lost.
//
//	go run ./examples/failover
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
	env := sim.NewEnv(23)
	provider := cloud.New(env, cloud.DefaultConfig())
	zone := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	otherZone := cloud.Placement{Region: cloud.USWest1, Zone: "b"}

	preload := func(srv *server.DBServer) error {
		sess := srv.Session("")
		for _, ddl := range []string{
			"CREATE DATABASE shop",
			"CREATE TABLE shop.orders (id BIGINT PRIMARY KEY, item VARCHAR(40), created TIMESTAMP)",
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
		Slaves:  []cluster.NodeSpec{{Place: zone}, {Place: otherZone}},
		Preload: preload,
	})
	if err != nil {
		log.Fatal(err)
	}
	db := core.Open(clu, core.WithDatabase("shop"), core.WithClientPlace(zone))

	env.Go("app", func(p *sim.Proc) {
		stamp := func(format string, args ...any) {
			fmt.Printf("[%7s] %s\n", p.Now().Round(time.Millisecond), fmt.Sprintf(format, args...))
		}

		accepted := 0
		for i := 1; i <= 20; i++ {
			if _, err := db.Exec(p, "INSERT INTO orders (id, item, created) VALUES (?, 'widget', UTC_MICROS())",
				sqlengine.NewInt(int64(i))); err == nil {
				accepted++
			}
		}
		stamp("accepted %d orders through the master", accepted)

		// Disaster: the master's VM dies. In-flight replication stops.
		oldMaster := db.Cluster().Master().Srv
		oldMaster.Inst.Terminate()
		stamp("MASTER %s TERMINATED", oldMaster.Name)

		// The application, told by the cloud that the VM is gone, promotes
		// the most-up-to-date slave itself — the essence of the
		// application-managed approach. (Had it waited, the proxy would have
		// done the same once its own writes had benched the dead master:
		// examples/chaos shows that path.)
		if err := db.Failover(); err != nil {
			log.Fatal(err)
		}
		promoted := db.Cluster().Master().Srv
		stamp("promoted %s to master; %d slave(s) re-attached",
			promoted.Name, len(db.Cluster().Slaves()))

		set, err := db.Query(p, "SELECT COUNT(*) FROM orders")
		if err != nil {
			log.Fatal(err)
		}
		stamp("orders visible after failover: %s of %d accepted (async replication may lose the tail)",
			set.Rows[0][0], accepted)

		// Traffic resumes against the new topology.
		for i := 100; i < 110; i++ {
			if _, err := db.Exec(p, "INSERT INTO orders (id, item, created) VALUES (?, 'post-failover', UTC_MICROS())",
				sqlengine.NewInt(int64(i))); err != nil {
				log.Fatal(err)
			}
		}
		db.WaitCaughtUp(p, time.Minute)
		set, _ = db.Query(p, "SELECT COUNT(*) FROM orders")
		stamp("cluster healthy again: %s orders on the promoted master and its slaves", set.Rows[0][0])
	})

	env.Run()
	env.Shutdown()
}
