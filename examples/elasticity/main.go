// Elasticity: the SLO-driven autoscaling controller grows a read-replica
// fleet under a stepped load ramp. A staleness-SLO policy watches the p95
// replication delay of every admitted replica; when the SLO is violated it
// provisions a new slave, warms it behind the proxy until the binlog lag is
// gone, and only then admits it for reads. Once the write master's CPU
// saturates, another replica buys nothing — the controller detects that,
// refuses to scale further and reports the tier master-bound.
//
// An operator process cross-checks the controller's view with the
// pt-heartbeat-style plugin, the way a DBA would eyeball replication lag
// independently of whatever the autoscaler claims.
//
//	go run ./examples/elasticity
package main

import (
	"fmt"
	"log"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/elastic"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
)

func main() {
	env := sim.NewEnv(11)
	cfg := cloud.DefaultConfig()
	cfg.CPUCoV = 0 // homogeneous fleet: the walkthrough is about control, not luck
	provider := cloud.New(env, cfg)
	zone := cloud.Placement{Region: cloud.USWest1, Zone: "a"}

	preload := func(srv *server.DBServer) error {
		if err := cloudstone.Preload(300)(srv); err != nil {
			return err
		}
		return heartbeat.Preload(srv)
	}
	clu, err := cluster.New(env, provider, cluster.Config{
		Cost:    server.DefaultCostModel(),
		Master:  cluster.NodeSpec{Place: zone},
		Slaves:  []cluster.NodeSpec{{Place: zone}}, // start with a single replica
		Preload: preload,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A stepped closed-loop ramp: comfortable, then past one slave's
	// saturation point, then past the master's.
	stages := []cloudstone.Stage{
		{Users: 50, Dur: 150 * time.Second},
		{Users: 100, Dur: 150 * time.Second},
		{Users: 150, Dur: 150 * time.Second},
		{Users: 200, Dur: 150 * time.Second},
		{Users: 250, Dur: 150 * time.Second},
	}
	db := core.Open(clu,
		core.WithDatabase(cloudstone.DatabaseName),
		core.WithClientPlace(zone),
		core.WithPool(pool.Config{MaxActive: 260, MaxIdle: 260}))
	hb := heartbeat.Start(env, clu.Master(), time.Second)
	driver := cloudstone.NewDriver(db, cloudstone.Config{
		Scale:     300,
		ReadRatio: 0.5,
		Stages:    stages,
	})

	// The handle gives the controller the cluster, the proxy and the pool's
	// wait counter; the driver's completed-operations counter is the one
	// signal it cannot know.
	ctrl, err := elastic.Start(env, db, func() float64 { return float64(driver.CompletedOps()) }, elastic.Config{
		Policy: elastic.StalenessSLO{},
		Spec:   cluster.NodeSpec{Place: zone},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The operator: every 90 seconds, an independent look at the fleet via
	// the heartbeat table rather than the controller's own monitor.
	env.Go("operator", func(p *sim.Proc) {
		for {
			p.Sleep(90 * time.Second)
			line := fmt.Sprintf("[%7s] operator:", p.Now().Round(time.Second))
			for _, sl := range clu.Slaves() {
				st, err := hb.Staleness(sl, p.Now())
				state := "admitted"
				if db.Proxy().Quarantined(sl) {
					state = "warming"
				}
				if err != nil {
					line += fmt.Sprintf(" %s(%s hb-err)", sl.Srv.Name, state)
					continue
				}
				line += fmt.Sprintf(" %s(%s hb-lag %s)", sl.Srv.Name, state, st.Round(10*time.Millisecond))
			}
			fmt.Println(line)
		}
	})

	driver.Start(env)
	var total time.Duration
	for _, s := range stages {
		total += s.Dur
	}
	env.RunUntil(total)
	ctrl.Stop()
	hb.Stop()
	env.Stop()
	env.Shutdown()

	fmt.Println("\ncontroller decision log:")
	for _, d := range ctrl.Decisions() {
		fmt.Printf("  %s\n", d)
	}

	res := driver.Result()
	fmt.Printf("\nramp done: %.2f ops/s, %d errors, %d slave(s) attached\n",
		res.Throughput, res.Errors, len(clu.Slaves()))
	fmt.Printf("time in SLO violation (p95 > %.0f ms): %s\n",
		elastic.SLOTargetMs, ctrl.SLOViolation().Truncate(time.Second))
	var vmMin float64
	for _, inst := range provider.Instances() {
		if inst.Name != "master" {
			vmMin += inst.UpTime().Minutes()
		}
	}
	fmt.Printf("slave VM-minutes billed: %.1f\n", vmMin)
	if bound, at, n := ctrl.MasterBound(); bound {
		fmt.Printf("verdict: master-bound at %d slave(s) since %s — scaling further buys nothing\n",
			n, time.Duration(at).Truncate(time.Second))
	} else {
		fmt.Printf("verdict: %s\n", ctrl.Verdict())
	}
}
