package core

import (
	"errors"
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

// TestAutomaticFailoverOnMasterCrash: killing the master mid-traffic
// promotes a slave through the proxy's failover hook once its writes have
// benched the master; client writes keep succeeding with no surfaced errors.
func TestAutomaticFailoverOnMasterCrash(t *testing.T) {
	env, db := newDB(t, 31, 2)
	var failed int
	written := 0
	env.Go("app", func(p *sim.Proc) {
		for i := 0; p.Now() < 30*time.Second; i++ {
			_, err := db.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(i)))
			if err != nil {
				failed++
			} else {
				written++
			}
			p.Sleep(500 * time.Millisecond)
		}
	})
	env.Schedule(10*time.Second, func() { db.Cluster().Master().Srv.Inst.Terminate() })
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()

	if failed != 0 {
		t.Fatalf("%d writes failed across the master crash", failed)
	}
	if written == 0 {
		t.Fatal("no writes completed")
	}
	if name := db.Cluster().Master().Srv.Name; name == "master" {
		t.Fatal("cluster still headed by the dead master")
	}
	if !db.Cluster().Master().Srv.Up() {
		t.Fatal("promoted master is not up")
	}
	st := db.Stats().Proxy
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want exactly 1: %+v", st.Failovers, st)
	}
	if st.Errors != 0 {
		t.Fatalf("proxy surfaced %d errors", st.Errors)
	}
}

// TestPartitionedMasterIsNotPromoted: a partition between the clients and a
// running master looks to the proxy exactly like a crash — its writes time
// out until the master is benched — but the failover hook asks the cloud,
// finds the master up and keeps it: no second master appears. Once the
// partition heals, writes resume when the bench's 30 s (the proxy's
// readmission window) are over.
func TestPartitionedMasterIsNotPromoted(t *testing.T) {
	env := sim.NewEnv(33)
	c := cloud.New(env, cloud.Config{})
	zoneA := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	zoneB := cloud.Placement{Region: cloud.USWest1, Zone: "b"}
	zoneC := cloud.Placement{Region: cloud.USWest1, Zone: "c"}
	// Master in a, slaves in c, clients in b: cutting a from b leaves
	// replication and the clients' path to the slaves intact.
	clu, err := cluster.New(env, c, cluster.Config{
		Mode:    repl.Async,
		Cost:    server.DefaultCostModel(),
		Master:  cluster.NodeSpec{Place: zoneA},
		Slaves:  []cluster.NodeSpec{{Place: zoneC}, {Place: zoneC}},
		Preload: preload,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(clu, WithDatabase("app"), WithClientPlace(zoneB))
	master := clu.Master()
	write := func(p *sim.Proc, id int) error {
		_, err := db.Exec(p, "INSERT INTO t (id, v) VALUES (?, 'x')", sqlengine.NewInt(int64(id)))
		return err
	}
	env.Go("app", func(p *sim.Proc) {
		if err := write(p, 1); err != nil {
			t.Errorf("write before the partition: %v", err)
			return
		}
		c.Network().Partition(zoneA, zoneB)
		if err := write(p, 2); !errors.Is(err, proxy.ErrNoBackend) {
			t.Errorf("write across the partition: err = %v, want ErrNoBackend once the master is benched", err)
		}
		st := db.Stats().Proxy
		if st.Timeouts != 3 || st.Failovers != 0 {
			t.Errorf("after the partitioned write: %+v; want 3 timeouts (the bench) and no failover", st)
		}
		if _, err := db.Query(p, "SELECT COUNT(*) FROM t"); err != nil {
			t.Errorf("read from a slave across the partition: %v", err)
		}
		c.Network().Heal(zoneA, zoneB)
		healed := p.Now()
		if err := write(p, 3); !errors.Is(err, proxy.ErrNoBackend) {
			t.Errorf("write right after the heal: err = %v, want ErrNoBackend (still benched)", err)
		}
		p.Sleep(30*time.Second - (p.Now() - healed))
		if err := write(p, 4); err != nil {
			t.Errorf("write after the readmission window: %v", err)
		}
	})
	env.RunUntil(5 * time.Minute)
	env.Stop()
	env.Shutdown()

	if clu.Master() != master || db.Stats().Proxy.Failovers != 0 {
		t.Fatalf("partition promoted a second master: cluster master %s, failovers %d",
			clu.Master().Srv.Name, db.Stats().Proxy.Failovers)
	}
	if !master.Srv.Up() {
		t.Fatal("the partitioned master is not running")
	}
}
