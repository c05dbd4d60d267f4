package sqlengine

import (
	"fmt"
	"strings"
	"testing"
)

// engineDigest renders everything an engine holds as a reader at its latest
// commit sees it: every table's rows in scan order, then every index's buckets
// in bucket order (through the probes). Two engines hold the same data, in the
// same order, exactly when their digests are equal.
func engineDigest(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	e.mu.RLock()
	for _, dbKey := range sortedKeys(e.dbs) {
		for _, tblKey := range sortedKeys(e.dbs[dbKey].tables) {
			fmt.Fprintf(&b, "%s.%s:", dbKey, tblKey)
			for _, img := range e.dbs[dbKey].tables[tblKey].store.images(readView{at: e.commitV, chains: true}, nil) {
				for _, v := range img {
					b.WriteString(v.SQL())
					b.WriteByte('|')
				}
				b.WriteByte('\n')
			}
		}
	}
	e.mu.RUnlock()
	s := e.NewSession("app")
	for _, q := range writeGoldenProbes {
		n, sum := tableChecksum(t, s, q)
		fmt.Fprintf(&b, "%s: %d rows %x\n", q, n, sum)
	}
	return b.String()
}

// TestRestoredEnginesShareNothingMutable: engines restored from one image share
// its row images with each other and with the source, and nothing else. What
// one of them does — every kind of write, rollbacks, enough commits for chain
// GC to prune the shared images' rows out from under it, a TRUNCATE — leaves
// the source, its siblings and a later restore of the same image as they were.
func TestRestoredEnginesShareNothingMutable(t *testing.T) {
	src := newWriteGoldenDB(t, FormatStatement).eng
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
	check := func(after string) {
		t.Helper()
		for name, e := range map[string]*Engine{"the source": src, "a sibling": b, "a later restore of the image": restore()} {
			if got := engineDigest(t, e); got != want {
				t.Fatalf("after %s on one restored engine, %s changed:\n%s\nwas:\n%s", after, name, got, want)
			}
		}
	}

	s := a.NewSession("app")
	run := func(sql string, args ...Value) {
		t.Helper()
		if _, err := s.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	run("UPDATE users SET karma = karma + 1, city = 'osl'")
	run("UPDATE users SET id = id + 100 WHERE id > 5")
	check("UPDATE")
	run("DELETE FROM events WHERE creator_id = 3")
	run("DELETE FROM users WHERE id = 1")
	check("DELETE")
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
	run("DROP TABLE logs")
	check("TRUNCATE and DROP")

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

// TestRestoreChecksUniqueness: the bulk restore enters rows through link, so an
// image whose rows collide on a key — it cannot come from Snapshot — is refused
// and leaves nothing behind.
func TestRestoreChecksUniqueness(t *testing.T) {
	src := newWriteGoldenDB(t, FormatStatement).eng
	img := src.Snapshot()
	for di := range img.dbs {
		for ti := range img.dbs[di].tables {
			if tb := &img.dbs[di].tables[ti]; tb.name == "users" {
				tb.store.rows = append(tb.store.rows, tb.store.rows[3])
			}
		}
	}
	e := NewEngine()
	err := e.Restore(img)
	if err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("restore of an image with a duplicated row: err = %v", err)
	}
	if _, ok := e.Database("app"); ok {
		t.Fatal("a failed restore replaced the catalog")
	}
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
