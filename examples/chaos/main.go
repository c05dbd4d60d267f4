// Chaos: a schedule-driven fault injector crashes a replica and then the
// master while closed-loop traffic keeps flowing. The proxy finds each crash
// from its statements' errors and retries them: it benches the replica until
// it returns, and once the master is benched its failover hook promotes a
// slave, so the application sees degraded throughput instead of an outage.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"
	"time"

	"cloudrepl/internal/chaos"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func main() {
	env := sim.NewEnv(7)
	provider := cloud.New(env, cloud.DefaultConfig())
	zone := cloud.Placement{Region: cloud.USWest1, Zone: "a"}

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
		Slaves:  []cluster.NodeSpec{{Place: zone}, {Place: zone}},
		Preload: preload,
	})
	if err != nil {
		log.Fatal(err)
	}
	db := core.Open(clu,
		core.WithDatabase("shop"),
		core.WithClientPlace(zone))

	// The fault plan: slave1 reboots at 2:00 (back at 3:00), the master
	// dies for good at 5:00.
	sched := new(chaos.Schedule).
		CrashFor(2*time.Minute, time.Minute, "slave1").
		Crash(5*time.Minute, "master")
	inj := chaos.Start(env, provider, sched)

	const runFor = 8 * time.Minute
	var ok, failed int
	env.Go("app", func(p *sim.Proc) {
		stamp := func(format string, args ...any) {
			fmt.Printf("[%7s] %s\n", p.Now().Round(time.Millisecond), fmt.Sprintf(format, args...))
		}
		for i := 1; p.Now() < runFor; i++ {
			var err error
			if i%2 == 0 {
				_, err = db.Exec(p, "INSERT INTO orders (id, item, created) VALUES (?, 'widget', UTC_MICROS())",
					sqlengine.NewInt(int64(i)))
			} else {
				_, err = db.Query(p, "SELECT COUNT(*) FROM orders")
			}
			if err != nil {
				failed++
			} else {
				ok++
			}
			p.Sleep(500 * time.Millisecond)
		}
		st := db.Stats().Proxy
		stamp("traffic done: %d ok, %d failed", ok, failed)
		stamp("retries=%d timeouts=%d evictions=%d readmissions=%d failovers=%d",
			st.Retries, st.Timeouts, st.SlaveEvictions, st.SlaveReadmissions, st.Failovers)
		stamp("final master: %s (%d slave(s) attached)",
			db.Cluster().Master().Srv.Name, len(db.Cluster().Slaves()))
	})

	env.RunUntil(runFor + time.Minute)
	env.Stop()
	env.Shutdown()

	fmt.Println("\ninjected faults:")
	for _, a := range inj.Log() {
		fmt.Printf("  %s\n", a)
	}
}
