package shard

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

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
				res, err := conn.Exec(p, sql)
				if err != nil {
					t.Error(err)
					return
				}
				got = append(got, fmt.Sprint(res.Result.Set.Columns, res.Result.Set.Rows))
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
	f.env.RunUntil(f.env.Now() + 10*time.Second)
	if !done {
		t.Fatal("client call did not finish in ten virtual seconds")
	}
}

// poisonLegs overwrites everything the connection's leg slots keep of their
// replies with a sentinel, as the next legs sent to those cells would: the
// last leg's rows, and all of the row storage a reply keeps from its second
// read on — every value and row header, spare capacity included. Both are the
// engine's, unexported two packages down, so the test reaches them by
// reflection: a renamed field fails here, loudly.
func poisonLegs(c *Conn) {
	sentinel := []sqlengine.Value{sqlengine.NewString("sentinel")}
	for i := range c.cells {
		l := &c.cells[i].leg
		eng := reflect.ValueOf(&l.reply).Elem().FieldByName("eng")
		set := (*sqlengine.ResultSet)(unsafe.Pointer(eng.FieldByName("Set").UnsafeAddr()))
		for i, row := range set.Rows {
			for j := range row {
				row[j] = sentinel[0]
			}
			set.Rows[i] = sentinel
		}
		space := eng.FieldByName("space")
		if space.IsNil() {
			continue
		}
		vals := *(*[]sqlengine.Value)(unsafe.Pointer(space.Elem().FieldByName("vals").UnsafeAddr()))
		vals = vals[:cap(vals)]
		for i := range vals {
			vals[i] = sentinel[0]
		}
		rows := *(*[][]sqlengine.Value)(unsafe.Pointer(space.Elem().FieldByName("rows").UnsafeAddr()))
		rows = rows[:cap(rows)]
		for i := range rows {
			rows[i] = sentinel
		}
	}
}

// TestMergedResultDoesNotAliasScratch: what a scatter returns — of either
// shape — stays what it was while the same connection runs more scatters
// through the same slots and the same merges, its own statement again among
// them, and a single-key write changes a row it was built from; and after
// every statement the leg slots' replies are poisoned, which no result a
// scatter returned may see.
func TestMergedResultDoesNotAliasScratch(t *testing.T) {
	f := newScatterFixture(t)
	defer f.env.Shutdown()
	for _, first := range []string{aggregateScatter, orderedScatter} {
		var held, was []*sqlengine.ResultSet
		f.do(t, func(p *sim.Proc) {
			for _, sql := range []string{
				first,
				"SELECT v, COUNT(*) AS n, MIN(id), MAX(id), SUM(id) FROM kv GROUP BY v ORDER BY v DESC",
				"SELECT id, v FROM kv ORDER BY v, id LIMIT 30",
				"SELECT DISTINCT v FROM kv ORDER BY v DESC",
				"UPDATE kv SET v = 'moved' WHERE id = 40",
				first,
			} {
				res, err := f.conn.Exec(p, sql)
				if err != nil {
					t.Errorf("%s: %v", sql, err)
					continue
				}
				if set := res.Result.Set; set != nil {
					if len(set.Rows) == 0 {
						t.Errorf("%s: no rows", sql)
					}
					held, was = append(held, set), append(was, cloneResult(set))
				}
				poisonLegs(f.conn)
				for i := range held {
					if !sameResult(held[i], was[i]) {
						t.Errorf("after %s, result %d of the run starting %s changed:\n now %v\n was %v", sql, i, first, held[i], was[i])
					}
				}
			}
		})
		if len(held) != 5 {
			t.Errorf("%s: %d results held, want 5", first, len(held))
		}
	}
	// Nothing of a finished scatter but the slots' own replies stays
	// reachable from the connection.
	c := f.conn
	if c.legArgs != nil || len(c.sets) != 0 {
		t.Errorf("connection still holds scatter state: %d args, %d sets", len(c.legArgs), len(c.sets))
	}
	for _, cell := range c.cells {
		if l := cell.leg; l.res != nil || l.err != nil {
			t.Errorf("a leg slot still holds its last result")
		}
	}
}

// TestScatterMachineryAllocs is the ceiling on what a warm two-cell scatter
// allocates: 3 objects a call. Two are the fixture's (the call's closure and
// its done flag, which a call that does nothing costs too), and one is the
// merged result the caller keeps: its headers in one object (scatterResult),
// its values and row list carved from chunks the Merge keeps. The legs'
// processes, replies and rows, the merge's scratch and the router's slots are
// all reused.
func TestScatterMachineryAllocs(t *testing.T) {
	f := newScatterFixture(t)
	defer f.env.Shutdown()
	measure := func(fn func(p *sim.Proc)) float64 {
		f.do(t, fn) // warm: slots, scratch and pools sized
		return testing.AllocsPerRun(50, func() { f.do(t, fn) })
	}
	idle := measure(func(*sim.Proc) {})
	for _, sql := range []string{orderedScatter, aggregateScatter} {
		whole := measure(func(p *sim.Proc) {
			if _, err := f.conn.Exec(p, sql); err != nil {
				t.Error(err)
			}
		})
		t.Logf("%-100.100s %2.0f objects per scatter (%.0f the fixture's)", sql, whole, idle)
		if whole > 3 {
			t.Errorf("%s: %.0f objects per warm two-cell scatter (%.0f of them the fixture's); ceiling 3: the fixture's 2 and the merged result's 1", sql, whole, idle)
		}
	}
}

// connObjects is what a routed connection costs once, whatever it runs:
// Connect's five objects — the Conn, its leg function, its array of per-cell
// proxy connections and scatter slots, its merge list and its scatter
// signal — the shard-key buffer its first single-key statement grows, and the
// waiter list its first scatter grows on that signal.
const connObjects = 7

// TestFreshRoutedConnAllocs: a routed connection is built whole. A fresh
// connection's first single-key write on each of two cells and its first
// two-cell scatter cost those statements' own results — a write's Reply each
// and the merged result — plus connObjects, on top of the fixture's own 2 a
// call: nothing per cell, per server session, per leg or per first write of a
// session. Sessions come from their engine's slab, a leg reply's rows from its
// plan's chunks, and a session's first write from storage in the session.
func TestFreshRoutedConnAllocs(t *testing.T) {
	f := newScatterFixture(t)
	defer f.env.Shutdown()
	var writes [2][]sqlengine.Value // an UPDATE's arguments on a key each cell owns, built once: a variadic call's own slice would escape
	for k := int64(1); k <= 40; k++ {
		writes[f.sc.Map().Owner(k)] = []sqlengine.Value{sqlengine.NewString("fresh"), sqlengine.NewInt(k)}
	}
	fresh := func(p *sim.Proc) {
		conn := f.sc.Connect("app")
		for _, args := range writes {
			if _, err := conn.Exec(p, "UPDATE kv SET v = ? WHERE id = ?", args...); err != nil {
				t.Error(err)
			}
		}
		if res, err := conn.Exec(p, orderedScatter); err != nil {
			t.Error(err)
		} else if len(res.Result.Set.Rows) != 5 {
			t.Errorf("%s: %d rows, want 5", orderedScatter, len(res.Result.Set.Rows))
		}
	}
	measure := func(fn func(p *sim.Proc)) float64 {
		for range 4 { // warm: plans built, pools sized, and the slabs' first chunks taken
			f.do(t, fn)
		}
		return testing.AllocsPerRun(100, func() { f.do(t, fn) })
	}
	idle := measure(func(*sim.Proc) {})
	whole := measure(fresh)
	const results = 3 // two writes' Replies and the merged scatter result
	t.Logf("%.0f objects for a fresh connection's two writes and scatter (%.0f the fixture's)", whole, idle)
	if whole > idle+results+connObjects {
		t.Errorf("a fresh routed connection's first two writes and scatter allocate %.0f objects; ceiling %.0f: the fixture's %.0f, the statements' %d and the connection's %d",
			whole, idle+results+connObjects, idle, results, connObjects)
	}
}
