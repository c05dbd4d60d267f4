package cloudstone

import (
	"testing"
	"time"

	"cloudrepl/internal/binlog"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// TestReadPageAllocCeilings holds every read page to an allocation ceiling at
// the read-heavy cell's data size, through Prepare + Run on one engine — the
// path DBServer.Exec takes. A read that returns rows needs three objects: the
// values, the row headers, and one block holding the Result and its ResultSet
// (through a proxy the same block holds the ExecResult too). That is the
// ceiling of every page, the aggregating one included; everything the executor
// allocates beyond what it returns is host cost the simulator pays per page
// and the GC pays again. -v logs the measured allocations and time per page.
func TestReadPageAllocCeilings(t *testing.T) {
	env := sim.NewEnv(11)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	inst := c.Launch("m", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"})
	srv := server.New(env, "m", inst, server.DefaultCostModel())
	if err := Preload(600)(srv); err != nil {
		t.Fatal(err)
	}
	sess := srv.Eng.NewSession(DatabaseName)
	const ceiling = 3
	seen := map[string]bool{}
	for _, pq := range pageQueries() {
		if seen[pq.name] {
			continue
		}
		seen[pq.name] = true
		run := func() {
			st, err := srv.Eng.Prepare(pq.sql)
			if err == nil {
				_, err = st.Run(sess, pq.args...)
			}
			if err != nil {
				t.Fatalf("%s: %v", pq.name, err)
			}
		}
		allocs := testing.AllocsPerRun(200, run)
		start := time.Now()
		const timed = 200
		for i := 0; i < timed; i++ {
			run()
		}
		t.Logf("%-12s %6.1f allocs %8.1f us", pq.name, allocs, float64(time.Since(start).Microseconds())/timed)
		if allocs > ceiling {
			t.Errorf("%s: %.1f allocs per page, ceiling %d", pq.name, allocs, ceiling)
		}
	}
}

// TestWriteAllocCeilings pins the host allocations of the five Cloudstone
// write statements on both ends of replication: through Prepare + Run on the
// master (what DBServer.Exec does) and through DBServer.Apply, on a second
// server, of the binlog entry the master logged. On the master a write has to
// allocate its Result and nothing else: it is logged as its prepared form, the
// text measured in the engine's scratch and the arguments copied into the
// engine's argument chunk; the replica logs the master's entry as it came,
// fills its session's Result and parses nothing. Rows, images, chain nodes and
// index postings come from the table's slabs and index keys are comparable
// values, so what is left on either side is amortized growth (an argument
// chunk, a slab chunk, a map). -v logs the measured counts.
func TestWriteAllocCeilings(t *testing.T) {
	env := sim.NewEnv(11)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	at := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	master := server.New(env, "m", c.Launch("m", cloud.Small, at), server.DefaultCostModel())
	replica := server.New(env, "s", c.Launch("s", cloud.Small, at), server.DefaultCostModel())
	for _, srv := range []*server.DBServer{master, replica} {
		if err := Preload(300)(srv); err != nil {
			t.Fatal(err)
		}
	}
	id := int64(1 << 40) // clear of every preloaded and generated id
	fresh := func() sqlengine.Value { id++; return sqlengine.NewInt(id) }
	seed := sqlengine.NewInt(7)
	writes := []struct {
		name string
		sql  string
		args func() []sqlengine.Value
	}{
		{"create-event", "INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, ?, ?, ?, UTC_MICROS(), UTC_MICROS())",
			func() []sqlengine.Value {
				return []sqlengine.Value{fresh(), seed, sqlengine.NewString("Event meetup"), sqlengine.NewString("created during the benchmark run")}
			}},
		{"join-event", "INSERT INTO attendance (id, event_id, user_id, created) VALUES (?, ?, ?, UTC_MICROS())",
			func() []sqlengine.Value { return []sqlengine.Value{fresh(), seed, seed} }},
		{"tag-event", "INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)",
			func() []sqlengine.Value { return []sqlengine.Value{fresh(), seed, seed} }},
		{"add-comment", "INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, ?, ?, ?, UTC_MICROS())",
			func() []sqlengine.Value {
				return []sqlengine.Value{fresh(), seed, seed, sqlengine.NewString("sounds great, count me in")}
			}},
		{"update-event", "UPDATE events SET description = ? WHERE id = ?",
			func() []sqlengine.Value {
				return []sqlengine.Value{sqlengine.NewString("updated during the benchmark run"), seed}
			}},
	}
	sess := master.Eng.NewSession(DatabaseName)
	// Measured 1 and 0; 3 and 0 while a logged write was its rendered text and
	// a copy of its arguments, 8–10 and 6–8 before the row store.
	const runs, runCeiling, applyCeiling = 200, 1, 2
	env.Go("measure", func(p *sim.Proc) {
		applySess := replica.Session("")
		for _, w := range writes {
			// The argument vectors are built outside the measured call, as a
			// client's are.
			argv := make([][]sqlengine.Value, 0, runs+1)
			for i := 0; i <= runs; i++ {
				argv = append(argv, w.args())
			}
			from := master.Log.LastSeq()
			next := 0
			got := testing.AllocsPerRun(runs, func() {
				st, err := master.Eng.Prepare(w.sql)
				if err == nil {
					_, err = st.Run(sess, argv[next]...)
				}
				if err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
				next++
			})
			entries := make([]binlog.Entry, 0, runs+1)
			for seq := from + 1; seq <= master.Log.LastSeq(); seq++ {
				e, err := master.Log.At(seq)
				if err != nil {
					t.Error(err)
					return
				}
				entries = append(entries, e)
			}
			next = 0
			applied := testing.AllocsPerRun(runs, func() {
				if err := replica.Apply(p, applySess, entries[next]); err != nil {
					t.Errorf("%s apply: %v", w.name, err)
				}
				next++
			})
			t.Logf("%-12s run %5.1f allocs, apply %5.1f allocs", w.name, got, applied)
			if got > runCeiling {
				t.Errorf("%s: %.1f allocs per Prepare+Run, ceiling %d", w.name, got, runCeiling)
			}
			if applied > applyCeiling {
				t.Errorf("%s: %.1f allocs per Apply, ceiling %d", w.name, applied, applyCeiling)
			}
		}
	})
	env.Run()
}

// TestRestoreAllocCeiling pins what restoring the Cloudstone scale-300 image
// onto an empty engine allocates, its index templates and view already built
// by an earlier restore: a restore is what every node of every cell costs to
// assemble. A table takes its schema from the image as resolved when the image
// was taken, so what is left per table is its own header, Index objects, index
// list and statistics, and per database its table map. -v logs the count.
func TestRestoreAllocCeiling(t *testing.T) {
	img := loaded(keyOf(300, ownsAll))
	if img.err != nil {
		t.Fatal(img.err)
	}
	const runs = 100
	engines := make([]*sqlengine.Engine, runs+1)
	for i := range engines {
		engines[i] = sqlengine.NewEngine()
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := engines[next].Restore(img.snap); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// Measured 45; 93 while every restore rebuilt each table's schema.
	const ceiling = 45
	t.Logf("restore of the scale-300 image: %.1f allocs", got)
	if got > ceiling {
		t.Errorf("%.1f allocs per restore, ceiling %d", got, ceiling)
	}
}
