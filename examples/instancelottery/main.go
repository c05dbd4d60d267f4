// Instance lottery: the paper's §IV-A observation made actionable. Two
// identically-priced m1.small instances can sit on physical hosts of
// different speed (the paper saw an E5430 beside a slower E5507; launch
// speeds vary with a coefficient of variation of 21 %); the difference shows
// up directly in end-to-end throughput. The application-managed approach lets the
// application benchmark its instances after launch and relaunch the slow
// ones — "validate instance performance before deploying".
//
//	go run ./examples/instancelottery
package main

import (
	"fmt"
	"log"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
)

func main() {
	env := sim.NewEnv(20260706)
	// Each launch draws its host's speed: mean 1, CoV 21 %.
	provider := cloud.New(env, cloud.Config{CPUCoV: 0.21})
	zone := cloud.Placement{Region: cloud.USWest1, Zone: "a"}

	preload := func(srv *server.DBServer) error {
		sess := srv.Session("")
		for _, ddl := range []string{
			"CREATE DATABASE app",
			"CREATE TABLE app.t (id BIGINT PRIMARY KEY)",
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
		Slaves:  []cluster.NodeSpec{{Place: zone}, {Place: zone}, {Place: zone}},
		Preload: preload,
	})
	if err != nil {
		log.Fatal(err)
	}
	db := core.Open(clu, core.WithDatabase("app"), core.WithClientPlace(zone))

	env.Go("ops", func(p *sim.Proc) {
		// show prints every instance and returns the slowest replica's speed:
		// the master, reported first, stays (replacing it would need a
		// failover).
		show := func(title string) float64 {
			fmt.Println(title)
			worst := 2.0
			for i, r := range db.ValidateInstances(p, 20) {
				fmt.Printf("  %-8s measured speed %.2f×\n", r.Name, r.Speed)
				if i > 0 && r.Speed < worst {
					worst = r.Speed
				}
			}
			return worst
		}

		worst := show("instances as launched:")
		const acceptable = 0.9
		if worst >= acceptable {
			fmt.Println("\nall replicas acceptable — lucky launch")
			return
		}

		// Relaunch until every replica clears the bar.
		fmt.Printf("\nslowest replica below %.2f× — relaunching slow slaves\n\n", acceptable)
		for attempt := 1; attempt <= 10; attempt++ {
			var slow []*repl.Slave
			for _, sl := range db.Cluster().Slaves() {
				if cloud.MeasureSpeed(p, sl.Srv.Inst, 20) < acceptable {
					slow = append(slow, sl)
				}
			}
			if len(slow) == 0 {
				break
			}
			for _, sl := range slow {
				db.Cluster().RemoveSlave(sl)
				if _, err := db.Cluster().AddSlave(cluster.NodeSpec{Place: zone}); err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("attempt %d: replaced %d slow slave(s)\n", attempt, len(slow))
		}
		fmt.Println()
		show("instances after validation loop:")
	})
	env.Run()
	env.Shutdown()
}
