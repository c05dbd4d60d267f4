package sqlengine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// engineDigest renders everything an engine holds as a reader at its latest
// commit sees it: its Digest, each table's rows in the order a scan returns
// them, then every index's buckets in bucket order (through the probes). Two
// engines hold the same data, in the same order, exactly when their digests
// are equal.
func engineDigest(t *testing.T, e *Engine) string {
	t.Helper()
	return digest(t, e, false)
}

// imageDigest is engineDigest with each probe's rows sorted: what a restore of
// an engine's image must match, since a restore fills every bucket in the
// image's row order, whatever order the source's writes left it in.
func imageDigest(t *testing.T, e *Engine) string {
	t.Helper()
	return digest(t, e, true)
}

func digest(t *testing.T, e *Engine, sortProbes bool) string {
	t.Helper()
	var b strings.Builder
	tables := e.Digest()
	b.WriteString(tables)
	s := e.NewSession("app")
	for _, line := range strings.Split(strings.TrimSuffix(tables, "\n"), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok {
			n, sum := tableChecksum(t, s, "SELECT * FROM "+name)
			fmt.Fprintf(&b, "%s in scan order: %d rows %x\n", name, n, sum)
		}
	}
	for _, q := range writeGoldenProbes {
		if !sortProbes {
			n, sum := tableChecksum(t, s, q)
			fmt.Fprintf(&b, "%s: %d rows %x\n", q, n, sum)
			continue
		}
		res, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var ids []string
		for _, r := range res.Set.Rows {
			ids = append(ids, r[0].SQL())
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "%s: %v\n", q, ids)
	}
	return b.String()
}

// recaptured restores a new engine from an image of e taken now.
func recaptured(t *testing.T, e *Engine) *Engine {
	t.Helper()
	r := NewEngine()
	if err := r.Restore(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return r
}

// sameArray reports whether a and b are one slice, not equal copies.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameKeys reports whether a and b are one index map, not equal copies.
func sameKeys(a, b *keyMap[bucket]) bool {
	return a.ints.n == b.ints.n && sameArray(a.ints.slots, b.ints.slots) &&
		reflect.ValueOf(a.rest).Pointer() == reflect.ValueOf(b.rest).Pointer()
}

// views returns, per table of e, the image whose view the table's heap and
// every index map are — by identity — or nil for a table that owns its own.
func views(e *Engine) map[string]*storeImage {
	out := map[string]*storeImage{}
	for _, db := range e.dbs {
		for _, tbl := range db.tables {
			st, img := &tbl.store, tbl.store.src
			shares := img != nil && sameArray(st.rows, img.heap)
			for i, ix := range st.keyed {
				shares = shares && sameKeys(&ix.buckets, &img.view[i])
			}
			if out[tbl.Name] = nil; shares {
				out[tbl.Name] = img
			}
		}
	}
	return out
}

// schemaText renders every answer a table's schema gives: each column's
// position by name in two cases and its PrimaryKey flag, the primary key's
// positions and each index's name, column positions and uniqueness.
func schemaText(b *strings.Builder, name string, tbl *Table) {
	fmt.Fprintf(b, "%s pk %v\n", name, tbl.pkCols)
	for _, c := range tbl.Columns {
		lo, lok := tbl.ColPos(strings.ToLower(c.Name))
		up, uok := tbl.ColPos(strings.ToUpper(c.Name))
		fmt.Fprintf(b, "  %s at %d %v / %d %v, primary key flag %v\n", c.Name, lo, lok, up, uok, c.PrimaryKey)
	}
	for _, ix := range tbl.indexes {
		fmt.Fprintf(b, "  index %s on %v unique %v\n", ix.Name, ix.Cols, ix.Unique)
	}
}

// schemas renders the schema of every table of e, in name order.
func schemas(e *Engine) string {
	var b strings.Builder
	for _, dbKey := range sortedKeys(e.dbs) {
		for _, tblKey := range sortedKeys(e.dbs[dbKey].tables) {
			schemaText(&b, dbKey+"."+tblKey, e.dbs[dbKey].tables[tblKey])
		}
	}
	return b.String()
}

// imageSchemas renders the schema every table of snap restores with.
func imageSchemas(snap *Snapshot) string {
	var b strings.Builder
	for _, sd := range snap.dbs {
		for _, st := range sd.tables {
			tbl := &Table{Columns: st.columns, colPos: st.colPos, pkCols: st.pkCols}
			for i := range st.indexes {
				tbl.indexes = append(tbl.indexes, &st.indexes[i])
			}
			schemaText(&b, sd.key+"."+st.key, tbl)
		}
	}
	return b.String()
}

// TestRestoreCarvesCappedShares: a restore carves every table's Index
// objects, index lists and column statistics out of one array of each kind,
// and caps each table's share at its length, so a list that grows on one
// table reallocates instead of writing over its neighbour's.
func TestRestoreCarvesCappedShares(t *testing.T) {
	src := newWriteGoldenDB(t).eng
	if _, err := src.Analyze("app", "users"); err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	if err := e.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if len(e.swept) < 2 {
		t.Fatalf("%d tables restored; the check needs neighbours", len(e.swept))
	}
	analyzed := false
	for _, tbl := range e.swept {
		for name, lc := range map[string][2]int{
			"secondary index list": {len(tbl.indexes), cap(tbl.indexes)},
			"keyed index list":     {len(tbl.store.keyed), cap(tbl.store.keyed)},
			"column statistics":    {len(tbl.stats.cols), cap(tbl.stats.cols)},
		} {
			if lc[0] != lc[1] {
				t.Errorf("%s: %s has length %d, capacity %d; want them equal", tbl.Name, name, lc[0], lc[1])
			}
		}
		if len(tbl.store.keyed) != len(tbl.indexes)+min(len(tbl.pkCols), 1) {
			t.Errorf("%s: %d keyed indexes for %d secondary ones", tbl.Name, len(tbl.store.keyed), len(tbl.indexes))
		}
		analyzed = analyzed || len(tbl.stats.cols) > 0
	}
	if !analyzed {
		t.Fatal("no restored table carries column statistics")
	}
}

// TestRestoredEnginesShareNothingMutable: engines restored from one image share
// its row images and index templates with each other and with the source —
// and each table the image's view until the table is first written — and
// nothing else. What one of them does — every kind of write, rollbacks, enough
// commits for chain GC to prune the shared images' rows out from under it, a
// TRUNCATE, a DROP, each step on tables the steps before it already own —
// leaves the source, its siblings and a later restore of the same image as
// they were, and an image of the written engine restores to what that engine
// holds. The schema the engines share with the image answers the same
// throughout, a re-ANALYZE of a written table included.
func TestRestoredEnginesShareNothingMutable(t *testing.T) {
	src := newWriteGoldenDB(t).eng
	img := src.Snapshot()
	restore := func() *Engine {
		t.Helper()
		e := NewEngine()
		if err := e.Restore(img); err != nil {
			t.Fatal(err)
		}
		return e
	}
	want := engineDigest(t, src)
	a, b := restore(), restore()
	for name, e := range map[string]*Engine{"first restore": a, "second restore": b} {
		if got := engineDigest(t, e); got != want {
			t.Fatalf("%s differs from its source:\n%s\nsource:\n%s", name, got, want)
		}
	}
	wantSchemas := imageSchemas(img)
	if got := schemas(b); got != wantSchemas {
		t.Fatalf("a restored engine's schema:\n%s\nthe image's:\n%s", got, wantSchemas)
	}
	written := map[string]bool{}
	check := func(after string, wrote ...string) {
		t.Helper()
		for name, got := range map[string]string{"a sibling": schemas(b), "the image": imageSchemas(img)} {
			if got != wantSchemas {
				t.Fatalf("after %s on one restored engine, the schema of %s changed:\n%s\nwas:\n%s", after, name, got, wantSchemas)
			}
		}
		for _, name := range wrote {
			written[name] = true
		}
		for name, v := range views(a) {
			if owns := v == nil; owns != written[name] {
				t.Fatalf("after %s, %s owns its storage: %v; written: %v", after, name, owns, written[name])
			}
		}
		for name, e := range map[string]*Engine{"the source": src, "a sibling": b, "a later restore of the image": restore()} {
			if got := engineDigest(t, e); got != want {
				t.Fatalf("after %s on one restored engine, %s changed:\n%s\nwas:\n%s", after, name, got, want)
			}
		}
		if got, held := imageDigest(t, recaptured(t, a)), imageDigest(t, a); got != held {
			t.Fatalf("after %s, a restore of a capture of the written engine holds:\n%s\nthe engine holds:\n%s", after, got, held)
		}
	}

	s := a.NewSession("app")
	run := func(sql string, args ...Value) {
		t.Helper()
		if _, err := s.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	run("INSERT INTO logs (a, b) VALUES (7, 'new')")
	check("INSERT", "logs")
	run("UPDATE users SET karma = karma + 1, city = 'osl'")
	run("UPDATE users SET id = id + 100 WHERE id > 5")
	if _, err := a.Analyze("app", "users"); err != nil {
		t.Fatal(err)
	}
	check("UPDATE and ANALYZE", "users")
	run("DELETE FROM events WHERE creator_id = 3")
	run("DELETE FROM users WHERE id = 1")
	check("DELETE", "events")
	run("BEGIN")
	run("INSERT INTO users (id, name, karma, city) VALUES (1, 'again', 0, 'ams'), (77, 'new', 0, 'ber')")
	run("UPDATE events SET title = 'provisional'")
	run("DELETE FROM logs")
	run("ROLLBACK")
	check("a rolled-back INSERT, UPDATE and DELETE")
	// Two sweeps' worth of commits over every events row: the images the
	// restore shared are superseded, then pruned.
	runs, _, _ := a.GCStats()
	for i := 0; i < 2*gcEvery; i++ {
		run("UPDATE events SET score = ? WHERE id > 0", NewFloat(float64(i)))
	}
	if r2, v2, _ := a.GCStats(); r2 < runs+2 || v2 == 0 {
		t.Fatalf("chain GC did not run on the restored engine: runs %d → %d, %d versions pruned", runs, r2, v2)
	}
	check("chain GC over superseded shared images")
	run("TRUNCATE TABLE events")
	check("TRUNCATE")
	run("DROP TABLE logs")
	check("DROP")

	// And the other way round: the source moves on, the image does not.
	ss := src.NewSession("app")
	for i := 0; i < 2*gcEvery; i++ {
		if _, err := ss.Exec("UPDATE users SET karma = ?", NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.Exec("DELETE FROM events"); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"a sibling": b, "a later restore of the image": restore()} {
		if got := engineDigest(t, e); got != want {
			t.Fatalf("after the source rewrote and pruned its rows, %s changed:\n%s\nwas:\n%s", name, got, want)
		}
	}
}

// TestRestoreChecksUniqueness: a restore checks the image's rows against the
// unique keys as link would enter them, so an image whose rows collide on a
// key — it cannot come from Snapshot — is refused and leaves nothing behind,
// on its first restore, which builds the image's index templates, and on every
// restore after it.
func TestRestoreChecksUniqueness(t *testing.T) {
	src := newWriteGoldenDB(t).eng
	img := src.Snapshot()
	for di := range img.dbs {
		for ti := range img.dbs[di].tables {
			if tb := &img.dbs[di].tables[ti]; tb.name == "users" {
				tb.store.rows = append(tb.store.rows, tb.store.rows[3])
			}
		}
	}
	var first error
	for _, which := range []string{"first", "second"} {
		e := NewEngine()
		err := e.Restore(img)
		// The row collides under the primary key and uq_name: link meets the
		// primary key first.
		if err == nil || !strings.Contains(err.Error(), "duplicate key: primary key of table users") {
			t.Fatalf("%s restore of an image with a duplicated row: err = %v", which, err)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("second restore: %v; the first said %v", err, first)
		}
		if _, ok := e.Database("app"); ok {
			t.Fatalf("a failed %s restore replaced the catalog", which)
		}
	}
}

// TestRestoredStoreCapturesAsItsImage is the sharing contract. A restored table
// reads its image's view — the heap and index maps are the view's, by identity
// — and captures as the image it was restored from (the same rows, slab marks
// and index templates, so an image of a freshly restored engine builds no
// index again) until something writes it. A write owns its table before it
// scans, so each kind of write, even one that changes nothing or fails and
// undoes, ends both for exactly the tables it touches, and leaves what an
// unchanged engine holds as it was; a restore of the engine's image then holds
// what the engine holds.
func TestRestoredStoreCapturesAsItsImage(t *testing.T) {
	src := newWriteGoldenDB(t).eng
	img := src.Snapshot()
	want := engineDigest(t, src)
	stores := func(snap *Snapshot) map[string]*storeImage {
		m := map[string]*storeImage{}
		for _, d := range snap.dbs {
			for _, tb := range d.tables {
				m[tb.name] = tb.store
			}
		}
		return m
	}
	orig := stores(img)
	restore := func() *Engine {
		t.Helper()
		e := NewEngine()
		if err := e.Restore(img); err != nil {
			t.Fatal(err)
		}
		return e
	}
	// A write logged on another engine, for Session.Replay to re-run.
	var logged []LoggedWrite
	m := restore()
	m.OnCommit = func(_ string, ws []LoggedWrite) { logged = append(logged, ws...) }
	if _, err := m.NewSession("app").Exec("INSERT INTO events (id, creator_id, title) VALUES (?, ?, 'replayed')", NewInt(99), NewInt(3)); err != nil {
		t.Fatal(err)
	}

	// exec runs statements that must succeed.
	exec := func(qs ...string) func(*testing.T, *Engine, *Session) {
		return func(t *testing.T, _ *Engine, s *Session) {
			for _, q := range qs {
				if _, err := s.Exec(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
		}
	}
	for _, tc := range []struct {
		kind      string
		touches   []string
		unchanged bool // the engine still holds what it shared
		do        func(t *testing.T, e *Engine, s *Session)
	}{
		{"nothing", nil, true, exec()},
		{"INSERT", []string{"logs"}, false, exec("INSERT INTO logs (a, b) VALUES (7, 'new')")},
		{"UPDATE", []string{"users"}, false, exec("UPDATE users SET city = 'osl' WHERE id = 4")},
		{"UPDATE of every row", []string{"users"}, false, exec("UPDATE users SET karma = karma + 1, city = 'osl'")},
		{"UPDATE moving the primary key", []string{"users"}, false, exec("UPDATE users SET id = id + 100 WHERE id > 5")},
		{"UPDATE of no row", []string{"events"}, true, exec("UPDATE events SET score = 0 WHERE id = 999")},
		{"DELETE", []string{"events"}, false, exec("DELETE FROM events WHERE creator_id = 3")},
		{"DELETE by primary key", []string{"users"}, false, exec("DELETE FROM users WHERE id = 1")},
		{"first write failing on a unique key", []string{"users"}, true, func(t *testing.T, _ *Engine, s *Session) {
			_, err := s.Exec("INSERT INTO users (id, name, karma, city) VALUES (30, 'n30', 1, 'ber'), (1, 'dup', 1, 'ber')")
			if !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("err = %v, want a duplicate key", err)
			}
		}},
		{"rolled-back UPDATE", []string{"events"}, false, exec("BEGIN", "UPDATE events SET creator_id = 9", "ROLLBACK")},
		{"ROLLBACK over three tables", []string{"users", "events", "logs"}, false, exec("BEGIN",
			"INSERT INTO users (id, name, karma, city) VALUES (77, 'new', 0, 'ber')", "UPDATE users SET city = 'osl'",
			"DELETE FROM users WHERE id = 1", "UPDATE events SET title = 'provisional'", "DELETE FROM logs", "ROLLBACK")},
		{"Session.Replay", []string{"events"}, false, func(t *testing.T, _ *Engine, s *Session) {
			if _, err := s.Replay(logged[0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"TRUNCATE", []string{"users"}, false, exec("TRUNCATE TABLE users")},
		{"TRUNCATE of a table with version chains and a graveyard", []string{"events"}, false, func(t *testing.T, e *Engine, s *Session) {
			exec("DELETE FROM events WHERE creator_id = 3", "UPDATE events SET score = 1 WHERE id > 0")(t, e, s)
			if st := &e.dbs["app"].tables["events"].store; len(st.chained) == 0 || len(st.graveyard) == 0 {
				t.Fatalf("before TRUNCATE, events has %d chained rows and %d buried", len(st.chained), len(st.graveyard))
			}
			exec("TRUNCATE TABLE events")(t, e, s)
		}},
		{"DROP", []string{"logs"}, false, exec("DROP TABLE logs")},
		// Two sweeps' worth of commits over every events row: the images the
		// restore shared are superseded, then pruned; the sweeps visit every
		// table.
		{"chain GC", []string{"events"}, false, func(t *testing.T, e *Engine, s *Session) {
			runs, _, _ := e.GCStats()
			for i := 0; i < 2*gcEvery; i++ {
				if _, err := s.Exec("UPDATE events SET score = ? WHERE id > 0", NewFloat(float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if r2, v2, _ := e.GCStats(); r2 < runs+2 || v2 == 0 {
				t.Fatalf("chain GC did not run on the restored engine: runs %d → %d, %d versions pruned", runs, r2, v2)
			}
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			e := restore()
			for name, v := range views(e) {
				if v != orig[name] {
					t.Fatalf("before any write, %s does not share its image's view", name)
				}
			}
			tc.do(t, e, e.NewSession("app"))
			touched := func(name string) bool { return slices.Contains(tc.touches, name) }
			for name, v := range views(e) {
				switch {
				case !touched(name) && v != orig[name]:
					t.Errorf("%s, which it did not write, no longer shares its image's view", name)
				case touched(name) && v != nil:
					t.Errorf("%s, which it wrote, still shares its image's view", name)
				case touched(name) && len(orig[name].heap) > 0 && sameArray(e.dbs["app"].tables[name].store.rows, orig[name].heap):
					t.Errorf("%s owns the image's heap", name)
				}
			}
			if got := engineDigest(t, e); tc.unchanged && got != want {
				t.Errorf("owning its table changed what the engine holds:\n%s\nwas:\n%s", got, want)
			}
			for name, st := range stores(e.Snapshot()) {
				if shared := st == orig[name]; shared == touched(name) {
					t.Errorf("the image of %s is the restored one: %v", name, shared)
				}
				if len(st.indexes) == 0 && !touched(name) && name != "logs" {
					t.Errorf("the image of %s has no index templates: its first restore did not build them", name)
				}
			}
			if got, held := imageDigest(t, recaptured(t, e)), imageDigest(t, e); got != held {
				t.Errorf("a restore of the engine's image holds:\n%s\nthe engine holds:\n%s", got, held)
			}
		})
	}

	// A reader older than the image's rows sees none of them: a transaction
	// opened before the restore reads empty tables at its version, not the image.
	e := NewEngine()
	txn := e.NewSession("")
	if _, err := txn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(img); err != nil {
		t.Fatal(err)
	}
	if n := e.snapshotAt(txn.readV).NumRows(); n != 0 {
		t.Fatalf("a transaction opened before the restore sees %d rows, want none", n)
	}
}

// TestRestoredStoreStandsWhereItsSourceStands: a restored store, once it owns
// its storage, stands where its source stands in its heap array and its slabs
// — the posting slab too, with the postings its source has given back counted
// as free slots — so it allocates next when its source would; a store that
// still shares its image already reports where owning will leave it. Either
// way each restored bucket holds the rows its source's does.
func TestRestoredStoreStandsWhereItsSourceStands(t *testing.T) {
	src := NewEngine()
	s := src.NewSession("")
	for _, q := range []string{"CREATE DATABASE d", "USE d", "CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, INDEX ig (grp))"} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	sizes := []int{1, 2, 3, 4, 5, 8, 9, 17, 64, 65, 257, 300}
	left := append([]int(nil), sizes...)
	for id, more := 0, true; more; {
		more = false
		for g := range left {
			if left[g] > 0 {
				left[g]--
				id++
				if _, err := s.Exec("INSERT INTO t (id, grp) VALUES (?, ?)", NewInt(int64(id)), NewInt(int64(g))); err != nil {
					t.Fatal(err)
				}
				more = true
			}
		}
	}
	// Updates give postings back to the source's free list and take them
	// again; deletes leave some there.
	for _, q := range []string{"UPDATE t SET grp = grp WHERE id <= 40", "DELETE FROM t WHERE id > 700 AND id <= 710"} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	re := NewEngine()
	if err := re.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	table := func(e *Engine) *Table { db, _ := e.Database("d"); tbl, _ := db.Table("t"); return tbl }
	loaded, restored := table(src), table(re)
	for _, when := range []string{"sharing its image", "owning its storage"} {
		if when == "owning its storage" {
			restored.store.own()
		}
		if got, want := restored.store.where(), loaded.store.where(); got != want {
			t.Errorf("%s, the restored store stands at %+v, its source at %+v", when, got, want)
		}
		for g := range sizes {
			want, _ := loaded.indexes[0].buckets.get(NewInt(int64(g)).hashKey())
			got, _ := restored.indexes[0].buckets.get(NewInt(int64(g)).hashKey())
			if got, want := bucketIDs(got), bucketIDs(want); !slices.Equal(got, want) {
				t.Fatalf("%s, group %d: the restored bucket holds ids %v, the loaded one %v", when, g, got, want)
			}
		}
	}
}

// bucketIDs returns the first column of b's rows, sorted: a restore fills a
// bucket in image order, not in the order its source's writes left it in.
func bucketIDs(b bucket) []int64 {
	var ids []int64
	for _, r := range b.rows() {
		ids = append(ids, r.vals[0].Int())
	}
	slices.Sort(ids)
	return ids
}

// TestRestoreCarriesStatisticsAndProgress: an engine restored from an image
// plans, re-analyzes and sweeps when its source would — the tables' statistics
// (a profile 15 % adrift must not be rebuilt, one 25 % adrift must), the GC
// phase and the GCStats/PlanStats counters come with the image, not from zero.
func TestRestoreCarriesStatisticsAndProgress(t *testing.T) {
	src := NewEngine()
	s := src.NewSession("")
	for _, q := range []string{"CREATE DATABASE d", "USE d", "CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, INDEX ig (grp))"} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(s *Session, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := s.Exec("INSERT INTO t (id, grp) VALUES (?, ?)", NewInt(int64(i)), NewInt(int64(i%7))); err != nil {
				t.Fatal(err)
			}
		}
	}
	const probe = "SELECT id FROM t WHERE grp = ?"
	insert(s, 0, 100)
	if _, err := s.Exec(probe, NewInt(3)); err != nil { // the first plan: one statistics pass over 100 rows
		t.Fatal(err)
	}
	insert(s, 100, 115) // 15 % adrift: not stale yet
	if _, err := s.Exec("UPDATE t SET grp = grp + 7 WHERE id < 30"); err != nil {
		t.Fatal(err)
	}
	re := NewEngine()
	if err := re.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	same := func(when string) {
		t.Helper()
		var got [2]string
		for i, e := range []*Engine{src, re} {
			runs, versions, rows := e.GCStats()
			builds, passes := e.PlanStats()
			got[i] = fmt.Sprintf("commit version %d, gc (%d, %d, %d), plans (%d, %d)", e.CommitVersion(), runs, versions, rows, builds, passes)
		}
		if got[0] != got[1] {
			t.Fatalf("%s:\nsource:   %s\nrestored: %s", when, got[0], got[1])
		}
	}
	same("right after the restore")
	if _, passes := re.PlanStats(); passes != 1 {
		t.Fatalf("restored engine reports %d statistics passes, want the source's 1", passes)
	}
	rs := re.NewSession("d")
	// The restored engine has to plan the probe (plans are not in an image) and
	// must do it from the carried profile: same estimates, no new pass.
	explain := func(sess *Session) string {
		t.Helper()
		set, err := sess.Query("EXPLAIN "+probe, NewInt(3))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range set.Rows {
			b.WriteString(r[0].Str() + "\n")
		}
		return b.String()
	}
	if a, b := explain(s), explain(rs); a != b {
		t.Fatalf("plans differ under the carried statistics:\nsource:\n%s\nrestored:\n%s", a, b)
	}
	if _, passes := re.PlanStats(); passes != 1 {
		t.Fatalf("planning at 15 %% drift re-analyzed the restored table (%d passes): its statistics were not carried", passes)
	}
	for _, sess := range []*Session{s, rs} {
		insert(sess, 115, 126) // 25 %: stale on both
		if _, err := sess.Exec(probe, NewInt(3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, a := src.PlanStats(); a != 2 {
		t.Fatalf("source made %d statistics passes, want 2", a)
	}
	if _, b := re.PlanStats(); b != 2 {
		t.Fatalf("restored engine made %d statistics passes at 25 %% drift, want 2", b)
	}
	// The sweep comes when the source's does: same phase.
	for i := 0; i < gcEvery; i++ {
		for _, sess := range []*Session{s, rs} {
			if _, err := sess.Exec("UPDATE t SET grp = ? WHERE id = 50", NewInt(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		a, _, _ := src.GCStats()
		b, _, _ := re.GCStats()
		if a != b {
			t.Fatalf("after %d more commits the source has swept %d times, the restored engine %d", i+1, a, b)
		}
	}
	if runs, _, _ := re.GCStats(); runs < 2 {
		t.Fatalf("%d sweeps: the loop never crossed one", runs)
	}
}

// TestDigestIsCanonical: Digest reads what a reader at the latest commit sees,
// in primary-key order — two engines that reach the same rows by different
// write orders digest alike, a change shows on its own table's line only, an
// uncommitted write not at all, and excluded tables not at all.
func TestDigestIsCanonical(t *testing.T) {
	a, b := newTestDB(t), newTestDB(t)
	for _, q := range []string{
		"DELETE FROM users WHERE id = 3",
		"INSERT INTO users (id, name, karma) VALUES (3, 'userc', 30)", // now last in the heap
		"UPDATE events SET score = 99 WHERE id = 7",
		"UPDATE events SET score = 3.5 WHERE id = 7", // back, with a version chain
	} {
		if _, err := a.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if got, want := a.eng.Digest(), b.eng.Digest(); got != want || !strings.Contains(got, "app.users 10 rows") {
		t.Fatalf("same rows, different write orders:\n%s\n%s", got, want)
	}
	lines := func(s *Session, exclude ...string) []string {
		return strings.Split(strings.TrimSuffix(s.eng.Digest(exclude...), "\n"), "\n")
	}
	before := lines(b)
	if _, err := b.Exec("UPDATE users SET karma = 0 WHERE id = 5"); err != nil {
		t.Fatal(err)
	}
	if after := lines(b); after[0] != before[0] || after[1] == before[1] {
		t.Fatalf("a change to users:\n%v\nwas:\n%v", after, before)
	}
	tx := b.eng.NewSession("app")
	for _, q := range []string{"BEGIN", "INSERT INTO events (id, creator_id) VALUES (100, 1)"} {
		if _, err := tx.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if open := lines(b); open[0] != before[0] {
		t.Fatalf("an open transaction's INSERT is in the digest: %s, was %s", open[0], before[0])
	}
	if got := lines(b, "EVENTS"); len(got) != 1 || !strings.HasPrefix(got[0], "app.users ") {
		t.Fatalf("events excluded: %v", got)
	}
	if got := lines(b, "app.users"); len(got) != 1 || !strings.HasPrefix(got[0], "app.events ") {
		t.Fatalf("app.users excluded: %v", got)
	}
}
