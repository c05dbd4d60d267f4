package cloudstone

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// pageQueries is every read page in the Cloudstone mix (driver.go readOp,
// plus both friend-feed statements), each with representative bindings.
// The planner-vs-naive differential runs all of them under both planner
// modes: a plan is only an execution strategy, so the result sets must be
// byte-identical — order-sensitive where the page has an ORDER BY.
func pageQueries() []struct {
	name string
	sql  string
	args []sqlengine.Value
} {
	ids := []int64{1, 7, 23, 37}
	var out []struct {
		name string
		sql  string
		args []sqlengine.Value
	}
	add := func(name, sql string, args ...sqlengine.Value) {
		out = append(out, struct {
			name string
			sql  string
			args []sqlengine.Value
		}{name, sql, args})
	}
	add("home", "SELECT id, title, event_date FROM events ORDER BY created DESC LIMIT 10")
	for _, id := range ids {
		add("event-feed", EventFeedSQL, sqlengine.NewInt(id))
		add("event-detail", "SELECT * FROM events WHERE id = ?", sqlengine.NewInt(id))
		add("attendees", "SELECT user_id FROM attendance WHERE event_id = ?", sqlengine.NewInt(id))
		add("search-tag",
			"SELECT e.id, e.title FROM event_tags et JOIN events e ON e.id = et.event_id WHERE et.tag_id = ? LIMIT 20",
			sqlengine.NewInt(id%NumTags+1))
		add("profile", "SELECT * FROM users WHERE id = ?", sqlengine.NewInt(id))
		add("user-events", "SELECT id, title FROM events WHERE creator_id = ?", sqlengine.NewInt(id))
		add("friend-list", "SELECT friend_id FROM friends WHERE user_id = ?", sqlengine.NewInt(id))
	}
	add("search-text", "SELECT id, title FROM events WHERE title LIKE ? LIMIT 10",
		sqlengine.NewString("%7 m%"))
	add("friend-feed", "SELECT id, title FROM events WHERE creator_id IN (?, ?, ?) ORDER BY created DESC LIMIT 10",
		sqlengine.NewInt(2), sqlengine.NewInt(15), sqlengine.NewInt(29))
	add("tag-cloud", "SELECT tag_id, COUNT(*) AS cnt FROM event_tags GROUP BY tag_id ORDER BY cnt DESC LIMIT 10")
	return out
}

// canonPage flattens a result set for comparison; unordered pages compare
// as multisets.
func canonPage(set *sqlengine.ResultSet, ordered bool) []string {
	rows := make([]string, 0, len(set.Rows))
	for _, r := range set.Rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.SQL())
			b.WriteByte('|')
		}
		rows = append(rows, b.String())
	}
	if !ordered {
		sort.Strings(rows)
	}
	return rows
}

// TestPagesPlannerNaiveDifferential preloads the Cloudstone data set on a
// standalone node and runs every read page under the cost-based and the
// forced-naive planner, requiring identical result sets. Scale 37 is
// deliberately coprime with the tag vocabulary so tag-cloud counts are not
// all tied (a tie under LIMIT would make row identity ambiguous rather than
// testing plan equivalence).
func TestPagesPlannerNaiveDifferential(t *testing.T) {
	env := sim.NewEnv(11)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	inst := c.Launch("m", cloud.Small, place)
	srv := server.New(env, "m", inst, server.DefaultCostModel())
	if err := Preload(37)(srv); err != nil {
		t.Fatal(err)
	}
	plannersAgree(t, srv.Eng, func() *sqlengine.Session { return srv.Eng.NewSession(DatabaseName) }, "")
}

// plannersAgree runs every read page on sess() under the cost-based and the
// forced-naive planner and requires identical result sets; at names the
// read view in failures. It returns the pages' results, cost-based.
func plannersAgree(t *testing.T, eng *sqlengine.Engine, sess func() *sqlengine.Session, at string) [][]string {
	t.Helper()
	var pages [][]string
	for _, pq := range pageQueries() {
		ordered := strings.Contains(pq.sql, "ORDER BY")
		run := func(naive bool) []string {
			eng.NaivePlan = naive
			set, err := sess().Query(pq.sql, pq.args...)
			if err != nil {
				t.Fatalf("%s%s (naive=%v): %v", pq.name, at, naive, err)
			}
			return canonPage(set, ordered)
		}
		cost, naive := run(false), run(true)
		eng.NaivePlan = false
		pages = append(pages, cost)
		if len(cost) != len(naive) {
			t.Errorf("%s%s: cost %d rows, naive %d rows", pq.name, at, len(cost), len(naive))
			continue
		}
		for i := range cost {
			if cost[i] != naive[i] {
				t.Errorf("%s%s: row %d differs\ncost:  %s\nnaive: %s", pq.name, at, i, cost[i], naive[i])
				break
			}
		}
	}
	return pages
}

// TestPlannersAgreeOnLiveData runs every read page under both planners on an
// engine whose rows carry version chains: the driver's own writes — inserts
// into events, attendance, event_tags and comments, and event updates — run on the
// loaded data set, a reader opens a transaction, and as many writes again
// pass it. At the latest version each plan takes its index paths; inside the
// snapshot every index access degrades to a chain-resolving scan, and only
// the conjuncts each plan places at its operators keep the answer exact — the
// path the static-data differentials never reach.
func TestPlannersAgreeOnLiveData(t *testing.T) {
	eng := sqlengine.NewEngine()
	now := int64(1) << 50 // every live row gets its own created instant
	eng.NowMicros = func() int64 { now++; return now }
	if err := LoadSQL(eng, 37); err != nil {
		t.Fatal(err)
	}
	d := NewDriver(nil, Config{Scale: 37})
	rng := rand.New(rand.NewSource(50))
	w := eng.NewSession(DatabaseName)
	write := func(n int) {
		for i := 0; i < n; i++ {
			o := d.writeOp(rng)
			if _, err := w.Exec(o.sql, o.args...); err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
		}
	}
	write(400)
	reader := eng.NewSession(DatabaseName)
	if _, err := reader.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	write(400)
	latest := plannersAgree(t, eng, func() *sqlengine.Session { return w }, " at the latest version")
	snap := plannersAgree(t, eng, func() *sqlengine.Session { return reader }, " in the snapshot")
	if slices.EqualFunc(latest, snap, slices.Equal) {
		t.Fatal("the snapshot reads what the latest version does: no write passed it")
	}
}
