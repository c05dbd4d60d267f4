package cloudstone

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cloudrepl/internal/sqlengine"
)

// imageStep is one statement of the stream both engines run.
type imageStep struct {
	sql  string
	args []sqlengine.Value
}

// imageStream is a seeded stream of n statements over the Cloudstone schema at
// the given scale: the read pages, the driver's five writes, and the shapes of
// the write golden's corpus (sqlengine/write_golden_test.go) — literal,
// multi-row and builtin-valued INSERTs, INSERTs and UPDATEs that fail on the
// primary key, the unique index and NOT NULL part-way through, UPDATEs by
// primary key, secondary index, range and of the key itself, DELETEs likewise,
// transactions rolled back and committed — plus bursts that grow a table past
// the statistics drift limit and one DELETE of a whole table. Ids are drawn around the
// preloaded ranges, so some statements hit rows and some miss.
func imageStream(rng *rand.Rand, scale, n int) []imageStep {
	var out []imageStep
	i64 := sqlengine.NewInt
	str := sqlengine.NewString
	add := func(sql string, args ...sqlengine.Value) { out = append(out, imageStep{sql, args}) }
	next := int64(100000) // fresh ids, past anything preloaded
	fresh := func() sqlengine.Value { next++; return i64(next) }
	seed := func() sqlengine.Value { return i64(int64(rng.Intn(scale+scale/4)) + 1) } // one in five misses
	pages := pageQueries()

	write := func() {
		switch k := rng.Intn(26); k {
		case 0, 1: // the driver's writes
			add("INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, ?, ?, ?, UTC_MICROS(), UTC_MICROS())",
				fresh(), seed(), str(fmt.Sprintf("Event %d meetup", next)), str("created during the benchmark run"))
		case 2, 3:
			add("INSERT INTO attendance (id, event_id, user_id, created) VALUES (?, ?, ?, UTC_MICROS())", fresh(), seed(), seed())
		case 4:
			add("INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)", fresh(), seed(), i64(int64(rng.Intn(NumTags))+1))
		case 5, 6:
			add("INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, ?, ?, ?, UTC_MICROS())",
				fresh(), seed(), seed(), str("sounds great, count me in"))
		case 7, 8:
			add("UPDATE events SET description = ? WHERE id = ?", str("updated during the benchmark run"), seed())
		case 9: // INSERT shapes
			add(fmt.Sprintf("INSERT INTO tags (id, name) VALUES (%d, 'lit')", fresh().Int()))
		case 10:
			add("INSERT INTO friends (id, user_id, friend_id) VALUES (?, ?, ?), (?, ?, ?), (?, ?, 3)",
				fresh(), seed(), seed(), fresh(), seed(), seed(), fresh(), seed())
		case 11:
			add("INSERT INTO users (id, username, created) VALUES (?, ?, UTC_MICROS())", fresh(), str(fmt.Sprint("late", next)))
		case 12: // INSERTs that fail and must leave no trace
			add("INSERT INTO users (id, username, created) VALUES (?, ?, 0), (?, ?, 0), (1, 'dup', 0)",
				fresh(), str(fmt.Sprint("a", next)), fresh(), str(fmt.Sprint("b", next)))
		case 13:
			add("INSERT INTO users (id, username, created) VALUES (?, ?, 0), (?, 'user000001', 0)", fresh(), str(fmt.Sprint("c", next)), fresh())
		case 14:
			switch rng.Intn(4) {
			case 0:
				add("INSERT INTO users (id, username) VALUES (?, NULL)", fresh())
			case 1:
				add("INSERT INTO users (id, nosuch) VALUES (?, 'x')", fresh())
			case 2:
				add("INSERT INTO nosuch (id) VALUES (?)", fresh())
			default:
				add("INSERT INTO users (id, username) VALUES (?, ?)", fresh())
			}
		case 15: // UPDATE access paths
			add("UPDATE events SET title = 'retitled' WHERE creator_id = ?", seed())
		case 16:
			lo := int64(rng.Intn(2 * scale))
			hi := lo + int64(rng.Intn(8))
			add("UPDATE attendance SET created = ? WHERE id >= ? AND id <= ?", i64(hi), i64(lo), i64(hi))
		case 17:
			add("UPDATE comments SET body = ?, created = UTC_MICROS() WHERE event_id = ? AND user_id > 0", str("edited"), seed())
		case 18: // the key itself, to a fresh one
			add("UPDATE tags SET id = ? WHERE id = ?", fresh(), i64(int64(rng.Intn(NumTags))+1))
		case 19: // UPDATEs that fail: a taken unique key, the same one for several rows, NOT NULL
			add("UPDATE users SET username = 'user000002' WHERE id = ?", seed())
		case 20:
			lo := int64(rng.Intn(scale))
			add("UPDATE users SET username = 'same' WHERE id >= ? AND id <= ?", i64(lo), i64(lo+3))
		case 21:
			add("UPDATE events SET title = NULL WHERE id = ?", seed())
		case 22: // DELETE
			add("DELETE FROM comments WHERE id = ?", seed())
		case 23:
			add("DELETE FROM event_tags WHERE event_id = ?", seed())
		case 24:
			lo := int64(rng.Intn(3 * scale))
			add("DELETE FROM friends WHERE id >= ? AND id <= ?", i64(lo), i64(lo+2))
		default:
			add("DELETE FROM users WHERE id = -1")
		}
	}
	read := func() {
		pq := pages[rng.Intn(len(pages))]
		args := pq.args
		if len(args) == 1 && args[0].Kind() == sqlengine.KindInt {
			args = []sqlengine.Value{seed()}
		}
		add(pq.sql, args...)
	}

	truncated := false
	for len(out) < n {
		switch k := rng.Intn(100); {
		case k < 35:
			read()
		case k < 88:
			write()
		case k < 94: // a transaction: writes, a read through them, then either end
			add("BEGIN")
			for i := rng.Intn(4) + 1; i > 0; i-- {
				write()
			}
			read()
			if rng.Intn(2) == 0 {
				add("ROLLBACK")
			} else {
				add("COMMIT")
			}
		case k < 96: // growth past the drift limit, then the pages that plan over it
			for i := scale/4 + 5; i > 0; i-- {
				add("INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, ?, ?, ?, UTC_MICROS(), UTC_MICROS())",
					fresh(), seed(), str(fmt.Sprintf("Event %d meetup", next)), str("growth"))
			}
			add(pages[0].sql)
			add("SELECT id, title FROM events WHERE creator_id = ?", seed())
		case !truncated && len(out) > n/2:
			truncated = true
			add("DELETE FROM friends")
			add("SELECT friend_id FROM friends WHERE user_id = ?", seed())
		}
	}
	return out[:n]
}

// loadedAndRestored loads Cloudstone at scale by SQL on a new engine and
// restores that engine's image onto a second one.
func loadedAndRestored(t *testing.T, scale int) (loaded, restored *sqlengine.Engine) {
	t.Helper()
	loaded, restored = sqlengine.NewEngine(), sqlengine.NewEngine()
	if err := LoadSQL(loaded, scale); err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(loaded.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return loaded, restored
}

// TestRestoredEngineIndistinguishable loads Cloudstone by SQL on one engine,
// restores that engine's image onto a second, and drives both with one
// 2000-statement stream: after every statement the two must agree on the
// outcome — error, rows in order, ExecStats, replayable text — on what reached
// the commit hook, on CommitVersion, GCStats and PlanStats, and on the rows, in
// scan order, of the table the statement wrote as a second session sees them
// (every table, every 250 statements).
func TestRestoredEngineIndistinguishable(t *testing.T) {
	for _, scale := range []int{37, 300} {
		t.Run(fmt.Sprint("scale", scale), func(t *testing.T) {
			loaded, restored := loadedAndRestored(t, scale)
			type side struct {
				eng       *sqlengine.Engine
				sess, obs *sqlengine.Session
				logged    []string
			}
			sides := [2]*side{{eng: loaded}, {eng: restored}}
			for _, s := range sides {
				var now int64
				s.eng.NowMicros = func() int64 { now += 1000; return now }
				s.eng.OnCommit = func(db string, writes []sqlengine.LoggedWrite) {
					for _, w := range writes {
						s.logged = append(s.logged, db+": "+w.Text())
					}
				}
				s.sess, s.obs = s.eng.NewSession(DatabaseName), s.eng.NewSession(DatabaseName)
				// A load ends with DDL in every harness (the heartbeat table),
				// which retires the load's plans on the source. Without it the
				// source would run the load's INSERT plans for the whole stream —
				// a write plan outlives every ANALYZE — while the restored engine
				// builds its own (TestRestoredEnginePlansAfresh).
				if _, err := s.sess.Exec("CREATE TABLE load_done (id BIGINT PRIMARY KEY)"); err != nil {
					t.Fatal(err)
				}
			}
			// outcome renders everything a statement hands back.
			outcome := func(res *sqlengine.Result, err error) string {
				if err != nil {
					return "error: " + err.Error()
				}
				var b strings.Builder
				fmt.Fprintf(&b, "%+v sql=%q", res.Stats, res.SQL)
				if res.Set != nil {
					fmt.Fprintf(&b, " columns=%v\n%s", res.Set.Columns, strings.Join(canonPage(res.Set, true), "\n"))
				}
				return b.String()
			}
			state := func(s *side, tables ...string) string {
				var b strings.Builder
				runs, versions, rows := s.eng.GCStats()
				builds, passes := s.eng.PlanStats()
				fmt.Fprintf(&b, "commit version %d, gc (%d, %d, %d), plans (%d, %d), %d logged", s.eng.CommitVersion(),
					runs, versions, rows, builds, passes, len(s.logged))
				if n := len(s.logged); n > 0 {
					b.WriteString(", last " + s.logged[n-1])
				}
				for _, tbl := range tables {
					b.WriteString("\n" + tbl + ": " + outcome(s.obs.Exec("SELECT * FROM "+tbl)))
				}
				return b.String()
			}
			commits0 := loaded.CommitVersion()
			sweeps0, _, _ := loaded.GCStats()
			_, passes0 := loaded.PlanStats()
			for i, st := range imageStream(rand.New(rand.NewSource(int64(scale))), scale, 2000) {
				var got [2]string
				for k, s := range sides {
					got[k] = outcome(s.sess.Exec(st.sql, st.args...))
				}
				if got[0] != got[1] {
					t.Fatalf("statement %d, %s %v:\nloaded:   %s\nrestored: %s", i, st.sql, st.args, got[0], got[1])
				}
				// The table just written, every time at the small scale and every
				// eighth at the large one (its tables are the cost of this test).
				var wrote []string
				if ps, err := loaded.Prepare(st.sql); err == nil && (scale < 100 || i%8 == 0) {
					if ref, ok := ps.Table(); ok && !strings.HasPrefix(got[0], "error: sqlengine: unknown table") {
						wrote = []string{ref.Name}
					}
				}
				if i%250 == 249 || i == 1999 {
					wrote = allTables
				}
				if a, b := state(sides[0], wrote...), state(sides[1], wrote...); a != b {
					t.Fatalf("after statement %d, %s %v:\nloaded:   %s\nrestored: %s", i, st.sql, st.args, a, b)
				}
			}
			commits := loaded.CommitVersion() - commits0
			sweeps, pruned, _ := loaded.GCStats()
			_, passes := loaded.PlanStats()
			if sweeps, passes = sweeps-sweeps0, passes-passes0; commits < 128 || sweeps < 2 || pruned == 0 || passes < 10 {
				t.Fatalf("the stream made %d commits, %d GC sweeps (%d versions pruned) and %d statistics passes: too few to tell the engines apart",
					commits, sweeps, pruned, passes)
			}
		})
	}
}

// TestRestoredEnginePlansAfresh pins the one thing that does tell a restored
// engine from its source: plans are node-local and not in the image, so a
// statement whose plan the source still holds from before the capture is
// planned once more on the restored engine — here the one INSERT the load and
// the workload share, which nothing but DDL retires. (Preload restores every
// node, the master too, so no node of a cluster holds the load's plans.)
func TestRestoredEnginePlansAfresh(t *testing.T) {
	loaded, restored := loadedAndRestored(t, 37)
	var built [2]uint64
	for i, eng := range []*sqlengine.Engine{loaded, restored} {
		before, _ := eng.PlanStats()
		if _, err := eng.NewSession(DatabaseName).Exec("INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)",
			sqlengine.NewInt(9001), sqlengine.NewInt(1), sqlengine.NewInt(1)); err != nil {
			t.Fatal(err)
		}
		after, _ := eng.PlanStats()
		built[i] = after - before
	}
	if built != [2]uint64{0, 1} {
		t.Fatalf("plans built for the load's own INSERT: %d on the loaded engine, %d on the restored one; want 0 and 1", built[0], built[1])
	}
}
