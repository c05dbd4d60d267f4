package cloudstone

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/core"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

var allTables = []string{"users", "events", "attendance", "tags", "event_tags", "comments", "friends"}

// nodeState renders what a database node holds and how far it has come.
func nodeState(t *testing.T, srv *server.DBServer) string {
	t.Helper()
	runs, versions, rows := srv.Eng.GCStats()
	builds, passes := srv.Eng.PlanStats()
	return fmt.Sprintf("%s: commit version %d, gc (%d, %d, %d), plans (%d, %d), log at %d\n%s", srv.Name,
		srv.Eng.CommitVersion(), runs, versions, rows, builds, passes, srv.Log.LastSeq(), srv.Eng.Digest())
}

func cellState(t *testing.T, db *core.DB) string {
	t.Helper()
	clu := db.Cluster()
	s := nodeState(t, clu.Master().Srv)
	for _, sl := range clu.Slaves() {
		s += nodeState(t, sl.Srv)
	}
	return s
}

// TestPreloadIsHistoryIndependent builds one cell twice in a process — the
// first preload loads the data set, the second finds it memoised — and runs
// one workload on both. Every node, master included, must come out the same
// both times, as built and after the workload. The preload ends without DDL,
// as a sharded cell's does, so a master that kept the load's INSERT plans
// would build fewer plans than a restored one.
func TestPreloadIsHistoryIndependent(t *testing.T) {
	const scale = 43
	images.Delete(keyOf(scale, ownsAll)) // the first build is the load
	var built, ran [2]string
	for i := range built {
		env, db := newBench(t, 12, 2, scale)
		built[i] = cellState(t, db)
		d := NewDriver(db, Config{Scale: scale, ReadRatio: 0.5, Users: 10,
			RampUp: time.Second, Steady: 3 * time.Minute, RampDown: time.Second})
		d.Start(env)
		env.RunUntil(4 * time.Minute)
		if d.CompletedOps() == 0 {
			t.Fatal("the workload ran no operation")
		}
		ran[i] = cellState(t, db)
		env.Stop()
		env.Shutdown()
	}
	if built[0] != built[1] {
		t.Fatalf("as built:\nfirst (loaded):    %s\nsecond (memoised): %s", built[0], built[1])
	}
	if ran[0] != ran[1] {
		t.Fatalf("after the workload:\nfirst (loaded):    %s\nsecond (memoised): %s", ran[0], ran[1])
	}
}

// TestPreloadRefusesANonEmptyServer: a preload restores the server's whole
// engine, so a server with a catalog — here a second preload of the same
// server — is refused and left as it was.
func TestPreloadRefusesANonEmptyServer(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	srv := server.New(env, "m", c.Launch("m", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"}), server.DefaultCostModel())
	if err := Preload(30)(srv); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Session(DatabaseName).Exec("DELETE FROM events WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	before, pos := srv.Eng.Digest(), srv.Log.LastSeq()
	err := PreloadOwned(30, func(table string, key int64) bool { return key%2 == 0 })(srv)
	if err == nil || !strings.Contains(err.Error(), "already has a catalog") {
		t.Fatalf("second preload of one server: err = %v, want a refusal", err)
	}
	if after := srv.Eng.Digest(); after != before || srv.Log.LastSeq() != pos {
		t.Fatalf("the refused preload changed the server:\n%s (log at %d)\nwas:\n%s (log at %d)", after, srv.Log.LastSeq(), before, pos)
	}
}

// TestPreloadKeysOnOwnership: the memo tells data sets apart by what the
// predicate answers, not by which function asks — two predicates that agree
// share one image, a predicate that differs in one row's answer gets its own.
func TestPreloadKeysOnOwnership(t *testing.T) {
	even := func(table string, key int64) bool { return key%2 == 0 }
	evenToo := func(table string, key int64) bool { return key&1 == 0 }
	oneMore := func(table string, key int64) bool { return key%2 == 0 || (table == "friends" && key == 7) }
	a, b, c := loaded(keyOf(30, even)), loaded(keyOf(30, evenToo)), loaded(keyOf(30, oneMore))
	if a.err != nil || c.err != nil {
		t.Fatal(a.err, c.err)
	}
	if a.snap != b.snap || a.snap == c.snap {
		t.Fatalf("images: even %p, the same predicate written differently %p, one friends row more %p", a.snap, b.snap, c.snap)
	}
	if a.snap.NumRows()+FriendsPerUser != c.snap.NumRows() {
		t.Fatalf("%d rows and %d rows: the extra user's %d friend edges are not the only difference", a.snap.NumRows(), c.snap.NumRows(), FriendsPerUser)
	}
}

// TestUnshardedPreloadAsksNoPredicate: a nil predicate names the data set
// without asking anything — its key is the one ownsAll's answers build,
// padding bits included — so Preload and PreloadOwned with ownsAll share one
// memoised image, and finding an image already there allocates nothing.
func TestUnshardedPreloadAsksNoPredicate(t *testing.T) {
	for _, scale := range []int{30, 37, 300} { // 37: the key's last byte is part padding
		if a, b := allOwned(scale), keyOf(scale, ownsAll); a != b {
			t.Fatalf("scale %d: the nil predicate's key %x differs from ownsAll's %x", scale, a.owned, b.owned)
		}
	}
	const scale = 37
	images.Delete(keyOf(scale, ownsAll))
	env := sim.NewEnv(1)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	newServer := func(name string) *server.DBServer {
		return server.New(env, name, c.Launch(name, cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"}), server.DefaultCostModel())
	}
	if err := Preload(scale)(newServer("unsharded")); err != nil {
		t.Fatal(err)
	}
	first, ok := images.Load(keyOf(scale, ownsAll))
	if !ok {
		t.Fatal("Preload memoised no image under the key ownsAll names")
	}
	if err := PreloadOwned(scale, ownsAll)(newServer("owns-all")); err != nil {
		t.Fatal(err)
	}
	if again, _ := images.Load(keyOf(scale, ownsAll)); again != first {
		t.Fatalf("Preload and PreloadOwned(ownsAll) memoised two images: %p and %p", first, again)
	}
	k := allOwned(scale)
	if n := testing.AllocsPerRun(100, func() { loaded(k) }); n != 0 {
		t.Fatalf("finding a memoised image allocates %.1f objects; want 0", n)
	}
}

// TestPreloadSharesOneImageAcrossGoroutines: a freshly memoised image gets its
// first restores on four goroutines at once — two clusters, which then write
// through every table with enough commits for chain GC to prune the shared row
// images on every node, and two bare engines — and they all build on one set
// of index templates, which the first of them builds. The bare engines, and a
// restore made after it all, read as the data set loaded by SQL. Under -race
// this is also the check that nothing writes into the image and that its
// templates are built once, behind whoever builds them.
func TestPreloadSharesOneImageAcrossGoroutines(t *testing.T) {
	const scale = 31
	images.Delete(keyOf(scale, ownsAll)) // the restores below are its first
	img := loaded(keyOf(scale, ownsAll))
	if img.err != nil {
		t.Fatal(img.err)
	}
	ref := sqlengine.NewEngine()
	if err := LoadSQL(ref, scale); err != nil {
		t.Fatal(err)
	}
	want := ref.Digest()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	bare := make([]*sqlengine.Engine, 3)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < 2 {
				errs[i] = writeThrough(int64(i+1), scale)
				return
			}
			bare[i-2] = sqlengine.NewEngine()
			errs[i] = bare[i-2].Restore(img.snap)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	bare[2] = sqlengine.NewEngine()
	if err := bare[2].Restore(img.snap); err != nil {
		t.Fatal(err)
	}
	for i, eng := range bare {
		if got := eng.Digest(); got != want {
			t.Fatalf("restore %d of the memoised image (the last made after the clusters wrote):\n%s\nthe SQL load:\n%s", i, got, want)
		}
	}
}

// TestPreloadedTablesShareUntilWritten: four goroutines restore one memoised
// image at once, and each writes tables of its own — per table and round, an
// INSERT and a rewrite of a loaded row, so each takes its table over from the
// image mid-run — while reading, every round, the tables it does not write,
// which it still shares with the image and with the other three: the same
// loaded rows the writers rewrite. A table a goroutine did not write reads as
// the data set, one it wrote as the data set plus its rows, and a restore made
// after it all as the data set. Under -race this is the check that taking a
// table over only reads the image, beside readers of it on other goroutines.
func TestPreloadedTablesShareUntilWritten(t *testing.T) {
	const scale, rounds, workers = 29, 40, 4
	images.Delete(keyOf(scale, ownsAll)) // the restores below are its first
	img := loaded(keyOf(scale, ownsAll))
	if img.err != nil {
		t.Fatal(img.err)
	}
	ref := sqlengine.NewEngine()
	if err := LoadSQL(ref, scale); err != nil {
		t.Fatal(err)
	}
	want := tableLines(ref)
	inserts := map[string]string{
		"users":      "INSERT INTO users (id, username) VALUES (?, CONCAT('u', ?))",
		"events":     "INSERT INTO events (id, creator_id, title) VALUES (?, ?, 'new')",
		"attendance": "INSERT INTO attendance (id, event_id, user_id) VALUES (?, ?, 1)",
		"tags":       "INSERT INTO tags (id, name) VALUES (?, CONCAT('t', ?))",
		"event_tags": "INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, 1)",
		"comments":   "INSERT INTO comments (id, event_id, user_id) VALUES (?, ?, 1)",
		"friends":    "INSERT INTO friends (id, user_id, friend_id) VALUES (?, ?, 2)",
	}
	writes := func(w int, table string) bool { return slices.Index(allTables, table)%workers == w }
	var wg sync.WaitGroup
	errs := make([]error, workers)
	engs := make([]*sqlengine.Engine, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sqlengine.NewEngine()
			if errs[w] = eng.Restore(img.snap); errs[w] != nil {
				return
			}
			engs[w] = eng
			sess := eng.NewSession(DatabaseName)
			for i := range rounds {
				id, old := sqlengine.NewInt(int64(1_000_000+i)), sqlengine.NewInt(int64(i%NumTags+1))
				for _, table := range allTables {
					var err error
					if writes(w, table) {
						if _, err = sess.Exec(inserts[table], id, id); err == nil {
							_, err = sess.Exec("UPDATE "+table+" SET id = id WHERE id = ?", old)
						}
					} else if _, err = sess.Query("SELECT COUNT(*) FROM " + table); err == nil {
						_, err = sess.Query("SELECT * FROM "+table+" WHERE id = ?", old)
					}
					if err != nil {
						errs[w] = fmt.Errorf("round %d, %s: %w", i, table, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", w, err)
		}
	}
	for w, eng := range engs {
		got := tableLines(eng)
		for _, table := range allTables {
			if writes(w, table) {
				if n, m := rowCount(t, eng, table), rowCount(t, ref, table); n != m+rounds {
					t.Errorf("goroutine %d wrote %s: %d rows, want the data set's %d and its %d", w, table, n, m, rounds)
				}
			} else if got[table] != want[table] {
				t.Errorf("goroutine %d read %s as %q, the data set is %q", w, table, got[table], want[table])
			}
		}
	}
	later := sqlengine.NewEngine()
	if err := later.Restore(img.snap); err != nil {
		t.Fatal(err)
	}
	if got := later.Digest(); got != ref.Digest() {
		t.Fatalf("a restore made after it all:\n%s\nthe data set:\n%s", got, ref.Digest())
	}
}

// tableLines is the engine's Digest by Cloudstone table.
func tableLines(eng *sqlengine.Engine) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(eng.Digest()), "\n") {
		out[strings.TrimPrefix(strings.Fields(line)[0], DatabaseName+".")] = line
	}
	return out
}

func rowCount(t *testing.T, eng *sqlengine.Engine, table string) int {
	t.Helper()
	set, err := eng.NewSession(DatabaseName).Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return int(set.Rows[0][0].Int())
}

// writeThrough preloads a master and two replicas at scale and runs 3·64
// commits over every table through them, then checks chain GC swept on each.
func writeThrough(seed int64, scale int) error {
	env := sim.NewEnv(seed)
	defer env.Shutdown()
	db, err := openBench(env, 2, scale)
	if err != nil {
		return err
	}
	in := sqlengine.NewInt
	writes := []struct {
		sql  string
		args func(i int64) []sqlengine.Value
	}{
		{"UPDATE events SET description = ? WHERE id > 0", func(i int64) []sqlengine.Value { return []sqlengine.Value{sqlengine.NewString(fmt.Sprint("v", i))} }},
		{"UPDATE users SET created = ?", func(i int64) []sqlengine.Value { return []sqlengine.Value{in(i)} }},
		{"DELETE FROM attendance WHERE event_id = ?", func(i int64) []sqlengine.Value { return []sqlengine.Value{in(i%int64(scale) + 1)} }},
		{"UPDATE tags SET name = CONCAT(name, '+')", func(int64) []sqlengine.Value { return nil }},
		{"DELETE FROM event_tags WHERE id = ?", func(i int64) []sqlengine.Value { return []sqlengine.Value{in(i)} }},
		{"INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, 1, 1, 'x', 0)", func(i int64) []sqlengine.Value { return []sqlengine.Value{in(10000 + i)} }},
		{"UPDATE friends SET friend_id = friend_id + 1 WHERE user_id = ?", func(i int64) []sqlengine.Value { return []sqlengine.Value{in(i%int64(scale) + 1)} }},
	}
	var execErr error
	env.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 3*64 && execErr == nil; i++ {
			w := writes[i%int64(len(writes))]
			_, execErr = db.Exec(p, w.sql, w.args(i)...)
		}
	})
	env.RunUntil(time.Hour)
	if execErr != nil {
		return execErr
	}
	clu := db.Cluster()
	for _, srv := range []*server.DBServer{clu.Master().Srv, clu.Slaves()[0].Srv, clu.Slaves()[1].Srv} {
		if runs, pruned, _ := srv.Eng.GCStats(); runs < 2 || pruned == 0 {
			return fmt.Errorf("%s: %d GC sweeps pruned %d versions: the shared images were never pruned", srv.Name, runs, pruned)
		}
	}
	return nil
}
