// Social calendar: the paper's Cloudstone scenario as an application — a
// Web 2.0 events calendar whose business logic talks straight to the
// replicated database tier. It demonstrates the staleness anomaly of
// asynchronous replication (a user who creates an event may not see it on
// the next page load) and the two read-consistency tiers that address it.
//
//	go run ./examples/socialcalendar
package main

import (
	"fmt"
	"log"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func buildTier(env *sim.Env, extra ...core.Option) *core.DB {
	provider := cloud.New(env, cloud.DefaultConfig())
	zone := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	clu, err := cluster.New(env, provider, cluster.Config{
		Mode:    repl.Async,
		Cost:    server.DefaultCostModel(),
		Master:  cluster.NodeSpec{Place: zone},
		Slaves:  []cluster.NodeSpec{{Place: zone}, {Place: zone}},
		Preload: cloudstone.Preload(100),
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := append([]core.Option{
		core.WithDatabase(cloudstone.DatabaseName),
		core.WithClientPlace(zone),
	}, extra...)
	return core.Open(clu, opts...)
}

// bgWrite issues one background-load insert. No fault injection runs in
// this example, so a failed write is a bug worth stopping on, not noise.
func bgWrite(p *sim.Proc, db *core.DB, id int64) {
	if _, err := db.Exec(p,
		"INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, 1, 1, 'bg', UTC_MICROS())",
		sqlengine.NewInt(id)); err != nil {
		log.Fatal(err)
	}
}

// createAndCheck creates an event and immediately loads the creator's
// event list (as a web app would after a redirect). It reports whether the
// fresh event was visible on the read path.
func createAndCheck(p *sim.Proc, db *core.DB, eventID int64) bool {
	if _, err := db.Exec(p,
		"INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, 7, 'My party', 'bring snacks', UTC_MICROS(), UTC_MICROS())",
		sqlengine.NewInt(eventID)); err != nil {
		log.Fatal(err)
	}
	set, err := db.Query(p, "SELECT id FROM events WHERE id = ?", sqlengine.NewInt(eventID))
	if err != nil {
		log.Fatal(err)
	}
	return len(set.Rows) == 1
}

func main() {
	// Round 1: round-robin, eventual consistency. The read after the write
	// often lands on a slave that has not applied the INSERT yet.
	env := sim.NewEnv(7)
	db := buildTier(env)
	// Background writers keep the applier busy so the anomaly window is
	// realistic rather than microscopic.
	for w := 0; w < 12; w++ {
		w := w
		env.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			for i := 0; p.Now() < 2*time.Minute; i++ {
				bgWrite(p, db, int64(5_000_000+w*100_000+i))
				p.Sleep(200 * time.Millisecond)
			}
		})
	}
	stale := 0
	const trials = 20
	env.Go("alice", func(p *sim.Proc) {
		p.Sleep(5 * time.Second) // let the writers build a backlog
		for i := 0; i < trials; i++ {
			if !createAndCheck(p, db, int64(9_000_000+i)) {
				stale++
			}
			p.Sleep(2 * time.Second)
		}
	})
	env.RunUntil(3 * time.Minute)
	fmt.Printf("round-robin balancer:        %2d/%d page loads missed the just-created event\n", stale, trials)
	env.Stop()
	env.Shutdown()

	// Round 2: the Bounded tier (the paper's proposed smart load balancer)
	// reads only from slaves at most 64 binlog events behind, else from the
	// master. The twelve writers push both slaves past 64 by the first page
	// load, so every load here falls back to the master and sees the event.
	// A bound caps staleness; it does not promise a session its own writes
	// (a slave 60 events behind qualifies and may miss the INSERT).
	env2 := sim.NewEnv(7)
	db2 := buildTier(env2, core.WithConsistency(proxy.Bounded), core.WithMaxStaleEvents(64))
	for w := 0; w < 12; w++ {
		w := w
		env2.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			for i := 0; p.Now() < 2*time.Minute; i++ {
				bgWrite(p, db2, int64(5_000_000+w*100_000+i))
				p.Sleep(200 * time.Millisecond)
			}
		})
	}
	stale2 := 0
	env2.Go("alice", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		for i := 0; i < trials; i++ {
			if !createAndCheck(p, db2, int64(9_000_000+i)) {
				stale2++
			}
			p.Sleep(2 * time.Second)
		}
	})
	env2.RunUntil(3 * time.Minute)
	fmt.Printf("bounded tier (≤64 events):   %2d/%d page loads missed the just-created event", stale2, trials)
	fmt.Printf(" (%d reads fell back to the master)\n", db2.Proxy().Stats().MasterFallbacks)
	env2.Stop()
	env2.Shutdown()

	// Round 3: the Session tier, read-your-writes — only the *writer's
	// own* reads are pinned to replicas that have applied its newest write
	// (or the master); everyone else keeps balancing freely. The cheapest
	// fix for this anomaly, and the one of the two that guarantees it.
	env4 := sim.NewEnv(7)
	db4 := buildTier(env4, core.WithConsistency(proxy.Session))
	for w := 0; w < 12; w++ {
		w := w
		env4.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			for i := 0; p.Now() < 2*time.Minute; i++ {
				bgWrite(p, db4, int64(5_000_000+w*100_000+i))
				p.Sleep(200 * time.Millisecond)
			}
		})
	}
	stale4 := 0
	env4.Go("alice", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		for i := 0; i < trials; i++ {
			if !createAndCheck(p, db4, int64(9_000_000+i)) {
				stale4++
			}
			p.Sleep(2 * time.Second)
		}
	})
	env4.RunUntil(3 * time.Minute)
	fmt.Printf("session tier (own writes):   %2d/%d page loads missed the just-created event\n", stale4, trials)
	env4.Stop()
	env4.Shutdown()

	// A calendar page rendered from a slave, for flavor.
	env3 := sim.NewEnv(9)
	db3 := buildTier(env3)
	env3.Go("render", func(p *sim.Proc) {
		set, err := db3.Query(p, `SELECT e.title, u.username FROM events e
			JOIN users u ON u.id = e.creator_id ORDER BY e.created DESC LIMIT 5`)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nupcoming events (rendered from a replica):")
		for _, row := range set.Rows {
			fmt.Printf("  %-24s by %s\n", row[0], row[1])
		}
	})
	env3.Run()
}
