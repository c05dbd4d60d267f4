package shard

import (
	"fmt"
	"testing"
	"time"

	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

const (
	orderedScatter   = "SELECT v FROM kv ORDER BY id DESC LIMIT 5 OFFSET 1" // id rides along as a helper column
	aggregateScatter = "SELECT v, COUNT(*) AS n, MIN(id), MAX(id), SUM(id) FROM kv GROUP BY v ORDER BY n DESC, v"
)

// TestScatterScriptUnchanged runs a fixed script of ordered and aggregated
// two-cell scatters between writes and holds it to the numbers the same
// script produced before legs ran on recycled goroutines out of standing
// slots: the kernel dispatched as many events, the run ended at the same
// virtual instant, and the legs were given the same proc ids (a probe
// process spawned around every statement brackets them), so nothing a
// scatter does moved on the timeline.
func TestScatterScriptUnchanged(t *testing.T) {
	env, _, sc := newShardSlots(t, 3, 2, 16, 40)
	defer env.Shutdown()
	var ids []uint64
	probe := func() { ids = append(ids, env.Go("probe", func(*sim.Proc) {}).ID()) }
	var doneAt sim.Time
	var got []string
	env.Go("app", func(p *sim.Proc) {
		conn := sc.Connect("app")
		for round := 0; round < 3; round++ {
			for _, sql := range []string{orderedScatter, aggregateScatter} {
				probe()
				set, err := conn.Query(p, sql)
				if err != nil {
					t.Error(err)
					return
				}
				got = append(got, fmt.Sprint(set.Columns, set.Rows))
			}
			probe()
			if _, err := conn.Exec(p, "INSERT INTO kv (id, v) VALUES (?, ?)",
				sqlengine.NewInt(int64(100+round)), sqlengine.NewString(fmt.Sprint("w", round%2))); err != nil {
				t.Error(err)
				return
			}
		}
		probe()
		doneAt = p.Now()
	})
	env.RunUntil(time.Minute)

	// The app is proc 7 (each cell's topology spawned three before it); the
	// two legs of each scatter sit between consecutive probes.
	wantIDs := []uint64{8, 11, 14, 15, 18, 21, 22, 25, 28, 29}
	if fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
		t.Errorf("probe proc ids %v, want %v: a scatter's legs no longer take the ids they took", ids, wantIDs)
	}
	if env.Events() != 112 || doneAt != 1188644638 {
		t.Errorf("script dispatched %d events and ended at %d; want 112 and 1188644638", env.Events(), int64(doneAt))
	}
	want := []string{
		"[v] [[seed] [seed] [seed] [seed] [seed]]",
		"[v n MIN(id) MAX(id) SUM(id)] [[seed 40 1 40 820]]",
		"[v] [[seed] [seed] [seed] [seed] [seed]]",
		"[v n MIN(id) MAX(id) SUM(id)] [[seed 40 1 40 820] [w0 1 100 100 100]]",
		"[v] [[w0] [seed] [seed] [seed] [seed]]",
		"[v n MIN(id) MAX(id) SUM(id)] [[seed 40 1 40 820] [w0 1 100 100 100] [w1 1 101 101 101]]",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("scatter results:\n got %q\nwant %q", got, want)
	}
}

// scatterFixture is a two-cell tier whose kv rows fall into twenty groups,
// with a client process that runs whatever it is handed, one call at a time.
type scatterFixture struct {
	env  *sim.Env
	sc   *Cluster
	conn *Conn
	work *sim.Queue[func(p *sim.Proc)]
}

func newScatterFixture(t *testing.T) *scatterFixture {
	env, _, sc := newShard(t, 5, 2, 40)
	f := &scatterFixture{env: env, sc: sc, conn: sc.Connect("app"), work: sim.NewQueue[func(p *sim.Proc)](env, "test/work")}
	env.Go("client", func(p *sim.Proc) {
		for {
			fn, _ := f.work.Get(p)
			fn(p)
		}
	})
	f.do(t, func(p *sim.Proc) {
		for i := 1; i <= 40; i++ {
			if _, err := f.conn.Exec(p, "UPDATE kv SET v = ? WHERE id = ?",
				sqlengine.NewString(fmt.Sprint("g", i%20)), sqlengine.NewInt(int64(i))); err != nil {
				t.Error(err)
			}
		}
	})
	return f
}

// do runs fn on the client process and lets the tier settle for ten virtual
// seconds (the slaves catch up; nothing else is scheduled).
func (f *scatterFixture) do(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	f.work.Put(func(p *sim.Proc) { fn(p); done = true })
	f.env.RunFor(10 * time.Second)
	if !done {
		t.Fatal("client call did not finish in ten virtual seconds")
	}
}

// TestMergedResultDoesNotAliasScratch: what a scatter returns — of either
// shape — stays what it was while the same connection runs more scatters
// through the same slots and the same merges, its own statement again among
// them, and a single-key write changes a row it was built from.
func TestMergedResultDoesNotAliasScratch(t *testing.T) {
	f := newScatterFixture(t)
	defer f.env.Shutdown()
	for _, first := range []string{aggregateScatter, orderedScatter} {
		var held, was *sqlengine.ResultSet
		f.do(t, func(p *sim.Proc) {
			set, err := f.conn.Query(p, first)
			if err != nil || len(set.Rows) == 0 {
				t.Errorf("%s: %v, %v", first, set, err)
				return
			}
			held, was = set, cloneResult(set)
			for _, next := range []string{
				"SELECT v, COUNT(*) AS n, MIN(id), MAX(id), SUM(id) FROM kv GROUP BY v ORDER BY v DESC",
				"SELECT id, v FROM kv ORDER BY v, id LIMIT 30",
				"SELECT DISTINCT v FROM kv ORDER BY v DESC",
				"UPDATE kv SET v = 'moved' WHERE id = 40",
				first,
			} {
				if _, err := f.conn.Exec(p, next); err != nil {
					t.Errorf("%s: %v", next, err)
				}
			}
		})
		if held == nil || !sameResult(held, was) {
			t.Errorf("%s: the result changed under later scatters on its connection:\n now %v\n was %v", first, held, was)
		}
	}
	// Nothing of a finished scatter stays reachable from the connection.
	c := f.conn
	if c.legArgs != nil || len(c.sets) != 0 {
		t.Errorf("connection still holds scatter state: %d args, %d sets", len(c.legArgs), len(c.sets))
	}
	for _, l := range c.legs {
		if l.res != nil || l.err != nil {
			t.Errorf("a leg slot still holds its last result")
		}
	}
}

// TestScatterMachineryAllocs is the ceiling on what a two-cell scatter
// allocates beyond its legs' own statements: the same two statements sent
// down the same two proxy connections from the client's own process, one
// after the other, are the baseline, and the difference is router and kernel
// machinery — a Proc per leg, the merged result's headers in one object, its
// row list, and for the aggregated shape the folded values.
func TestScatterMachineryAllocs(t *testing.T) {
	f := newScatterFixture(t)
	defer f.env.Shutdown()
	for _, sql := range []string{orderedScatter, aggregateScatter} {
		legSQL := f.sc.route(sql).plan.CellSQL
		scatter := func(p *sim.Proc) {
			if _, err := f.conn.Exec(p, sql); err != nil {
				t.Error(err)
			}
		}
		legsAlone := func(p *sim.Proc) {
			for id := 0; id < 2; id++ {
				if _, err := f.conn.cellConn(id).Exec(p, legSQL); err != nil {
					t.Error(err)
				}
			}
		}
		measure := func(fn func(p *sim.Proc)) float64 {
			f.do(t, fn) // warm: slots, scratch and pools sized
			return testing.AllocsPerRun(50, func() { f.do(t, fn) })
		}
		whole, legs := measure(scatter), measure(legsAlone)
		t.Logf("%-100.100s %3.0f objects per scatter, %3.0f in its legs' statements, %2.0f machinery", sql, whole, legs, whole-legs)
		if whole-legs > 8 {
			t.Errorf("%s: %.0f objects of machinery per two-cell scatter (%.0f in all, %.0f in the legs' statements); ceiling 8", sql, whole-legs, whole, legs)
		}
	}
}
