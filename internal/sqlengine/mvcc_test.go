package sqlengine

import (
	"fmt"
	"strings"
	"testing"
)

// mvccDB builds an engine with one small table and returns the engine and an
// autocommit session on it.
func mvccDB(t *testing.T) (*Engine, *Session) {
	t.Helper()
	eng := NewEngine()
	if err := eng.CreateDatabase("app", false); err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession("app")
	if _, err := s.Exec(`CREATE TABLE kv (id BIGINT PRIMARY KEY, v BIGINT, INDEX idx_v (v))`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := s.Exec("INSERT INTO kv (id, v) VALUES (?, ?)", NewInt(int64(i)), NewInt(int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	return eng, s
}

func readV(t *testing.T, s *Session, id int64) (int64, bool) {
	t.Helper()
	res, err := s.Exec("SELECT v FROM kv WHERE id = ?", NewInt(id))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) == 0 {
		return 0, false
	}
	return res.Set.Rows[0][0].Int(), true
}

func countRows(t *testing.T, s *Session) int64 {
	t.Helper()
	res, err := s.Exec("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	return res.Set.Rows[0][0].Int()
}

// A transaction's reads all run against its BEGIN-time version: concurrent
// committed writes stay invisible until the transaction ends.
func TestSnapshotIsolationReads(t *testing.T) {
	eng, writer := mvccDB(t)
	reader := eng.NewSession("app")
	if _, err := reader.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if v, _ := readV(t, reader, 1); v != 100 {
		t.Fatalf("pre-write read = %d, want 100", v)
	}
	if _, err := writer.Exec("UPDATE kv SET v = 999 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec("INSERT INTO kv (id, v) VALUES (6, 600)"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec("DELETE FROM kv WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	// The open transaction still sees the BEGIN-time state.
	if v, _ := readV(t, reader, 1); v != 100 {
		t.Errorf("post-update snapshot read = %d, want 100", v)
	}
	if _, ok := readV(t, reader, 6); ok {
		t.Error("snapshot reader sees row inserted after BEGIN")
	}
	if v, ok := readV(t, reader, 2); !ok || v != 200 {
		t.Errorf("snapshot reader lost deleted row: v=%d ok=%v", v, ok)
	}
	if n := countRows(t, reader); n != 5 {
		t.Errorf("snapshot COUNT(*) = %d, want 5", n)
	}
	if _, err := reader.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	// After the transaction ends the session reads latest state.
	if v, _ := readV(t, reader, 1); v != 999 {
		t.Errorf("post-commit read = %d, want 999", v)
	}
	if _, ok := readV(t, reader, 2); ok {
		t.Error("deleted row still visible after transaction end")
	}
	if n := countRows(t, reader); n != 5 {
		t.Errorf("latest COUNT(*) = %d, want 5 (one insert, one delete)", n)
	}
}

// Provisional writes of an open transaction are invisible to everyone else —
// and a provisional DELETE leaves the committed image visible to others while
// hiding it from the deleting session.
func TestProvisionalWriteVisibility(t *testing.T) {
	eng, other := mvccDB(t)
	txn := eng.NewSession("app")
	if _, err := txn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("INSERT INTO kv (id, v) VALUES (10, 1000)"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("UPDATE kv SET v = 111 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("DELETE FROM kv WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	// The writer sees its own effects.
	if v, _ := readV(t, txn, 10); v != 1000 {
		t.Errorf("own insert invisible: %d", v)
	}
	if v, _ := readV(t, txn, 1); v != 111 {
		t.Errorf("own update invisible: %d", v)
	}
	if _, ok := readV(t, txn, 3); ok {
		t.Error("own pending delete still visible")
	}
	// Everyone else sees the committed state.
	if _, ok := readV(t, other, 10); ok {
		t.Error("foreign pending insert visible")
	}
	if v, _ := readV(t, other, 1); v != 100 {
		t.Errorf("foreign pending update visible: %d", v)
	}
	if v, ok := readV(t, other, 3); !ok || v != 300 {
		t.Errorf("pending delete hid committed image from others: v=%d ok=%v", v, ok)
	}
	if _, err := txn.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if v, _ := readV(t, other, 10); v != 1000 {
		t.Errorf("committed insert invisible: %d", v)
	}
	if _, ok := readV(t, other, 3); ok {
		t.Error("committed delete not applied")
	}
}

// Rollback restores exactly the pre-transaction state, including indexes and
// the primary key, with no version-counter advance.
func TestRollbackRestoresState(t *testing.T) {
	eng, other := mvccDB(t)
	before := eng.CommitVersion()
	txn := eng.NewSession("app")
	for _, sql := range []string{
		"BEGIN",
		"UPDATE kv SET v = 1 WHERE id = 1",
		"DELETE FROM kv WHERE id = 2",
		"INSERT INTO kv (id, v) VALUES (7, 700)",
		"UPDATE kv SET v = 2 WHERE id = 7",
		"ROLLBACK",
	} {
		if _, err := txn.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if got := eng.CommitVersion(); got != before {
		t.Errorf("rollback advanced commit version %d -> %d", before, got)
	}
	for _, s := range []*Session{txn, other} {
		if v, _ := readV(t, s, 1); v != 100 {
			t.Errorf("id 1 = %d after rollback, want 100", v)
		}
		if v, ok := readV(t, s, 2); !ok || v != 200 {
			t.Errorf("id 2 gone after rollback: v=%d ok=%v", v, ok)
		}
		if _, ok := readV(t, s, 7); ok {
			t.Error("rolled-back insert still visible")
		}
	}
	// The indexed path must agree with the restored heap.
	res, err := other.Exec("SELECT id FROM kv WHERE v = 200")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) != 1 || res.Set.Rows[0][0].Int() != 2 {
		t.Fatalf("index lookup after rollback: %+v", res.Set.Rows)
	}
	// The relinked row is a first-class heap row again: updatable, deletable.
	if _, err := other.Exec("UPDATE kv SET v = 201 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if v, _ := readV(t, other, 2); v != 201 {
		t.Errorf("update of relinked row: %d", v)
	}
}

// Snapshot is a versioned read: provisional writes of open transactions are
// excluded without quiescing, and Restore adopts the snapshot's version.
func TestSnapshotExcludesProvisionalWrites(t *testing.T) {
	eng, _ := mvccDB(t)
	txn := eng.NewSession("app")
	if _, err := txn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("INSERT INTO kv (id, v) VALUES (99, 9)"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("DELETE FROM kv WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap.NumRows() != 5 {
		t.Fatalf("snapshot rows = %d, want 5 (provisional insert/delete excluded)", snap.NumRows())
	}
	if snap.version != eng.CommitVersion() {
		t.Fatalf("snapshot version %d != commit version %d", snap.version, eng.CommitVersion())
	}
	restored := NewEngine()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.CommitVersion() != snap.version {
		t.Fatalf("restore left commit version %d, want %d", restored.CommitVersion(), snap.version)
	}
	rs := restored.NewSession("app")
	if v, ok := readV(t, rs, 1); !ok || v != 100 {
		t.Errorf("restored engine: id 1 v=%d ok=%v", v, ok)
	}
	if _, err := txn.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

// An open transaction holds the GC horizon: the images its BEGIN-time version
// sees survive any number of later commits and GC runs, the transaction still
// reads them, and an image taken at its read version restores to them. Once
// it commits, the next GC prunes every version it held.
func TestOpenTxnHoldsGCHorizon(t *testing.T) {
	eng, s := mvccDB(t)
	txn := eng.NewSession("app")
	if _, err := txn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	// Churn well past the GC interval: overwrite one row hundreds of times,
	// then delete another.
	for i := 0; i < 4*gcEvery; i++ {
		if _, err := s.Exec("UPDATE kv SET v = ? WHERE id = 1", NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("DELETE FROM kv WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	runs, held, _ := eng.GCStats()
	if runs < 4 {
		t.Fatalf("GC ran %d times during the churn, want at least 4", runs)
	}
	if v, _ := readV(t, txn, 1); v != 100 {
		t.Errorf("the transaction reads id 1 = %d, want its BEGIN-time 100", v)
	}
	if v, ok := readV(t, txn, 2); !ok || v != 200 {
		t.Errorf("the transaction reads id 2: v=%d ok=%v, want its BEGIN-time 200", v, ok)
	}
	snap := eng.snapshotAt(txn.readV)
	if snap.NumRows() != 5 {
		t.Fatalf("image at the read version holds %d rows, want 5", snap.NumRows())
	}
	re := NewEngine()
	if err := re.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rs := re.NewSession("app")
	if v, _ := readV(t, rs, 1); v != 100 {
		t.Errorf("restored image of id 1 = %d, want 100", v)
	}
	if v, ok := readV(t, rs, 2); !ok || v != 200 {
		t.Errorf("restored image of id 2: v=%d ok=%v", v, ok)
	}
	if _, err := txn.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	// With the transaction gone the horizon is the latest version: the long
	// id-1 chain is cut and the deleted row leaves the graveyard.
	eng.gc()
	_, versions, rows := eng.GCStats()
	if versions-held < 4*gcEvery {
		t.Fatalf("GC after COMMIT pruned %d versions, want the %d the transaction held", versions-held, 4*gcEvery)
	}
	if rows == 0 {
		t.Fatalf("deleted row never reclaimed from graveyard: rows=%d", rows)
	}
}

// Without open transactions, chain memory stays bounded: steady
// update churn reclaims superseded versions instead of accreting them.
func TestChainGCBoundsMemory(t *testing.T) {
	eng, s := mvccDB(t)
	for i := 0; i < 10*gcEvery; i++ {
		if _, err := s.Exec("UPDATE kv SET v = ? WHERE id = 3", NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	_, versions, _ := eng.GCStats()
	// 10*gcEvery superseded images were produced; nearly all must be pruned.
	if versions < uint64(8*gcEvery) {
		t.Fatalf("pruned only %d versions out of ~%d produced", versions, 10*gcEvery)
	}
}

// AdvanceVersion is a monotone max — the replication apply path may deliver
// sequence numbers out of order across appliers.
func TestAdvanceVersionMonotone(t *testing.T) {
	eng, _ := mvccDB(t)
	base := eng.CommitVersion()
	eng.AdvanceVersion(base + 10)
	if got := eng.CommitVersion(); got != base+10 {
		t.Fatalf("advance to %d got %d", base+10, got)
	}
	eng.AdvanceVersion(base + 5)
	if got := eng.CommitVersion(); got != base+10 {
		t.Fatalf("AdvanceVersion went backwards: %d", got)
	}
}

// Version stamping is deterministic: the same statement sequence yields the
// same commit versions, so replicas stamping via AdvanceVersion(seq) agree
// with masters stamping via commit.
func TestVersionStampsDeterministic(t *testing.T) {
	run := func() []uint64 {
		eng := NewEngine()
		if err := eng.CreateDatabase("app", false); err != nil {
			t.Fatal(err)
		}
		s := eng.NewSession("app")
		var vs []uint64
		mustExec := func(sql string) {
			if _, err := s.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			vs = append(vs, eng.CommitVersion())
		}
		mustExec(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
		for i := 0; i < 20; i++ {
			mustExec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i))
		}
		mustExec("BEGIN")
		mustExec("UPDATE t SET v = 99 WHERE id < 10")
		mustExec("DELETE FROM t WHERE id = 15")
		mustExec("COMMIT")
		return vs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("stamp streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stamp %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestGCSweepOrder: a sweep visits every table in (database, table) name order
// — whatever order they were created in, and after every CREATE TABLE and
// Restore — and a sweep allocates nothing: the order is listed once per
// catalog change, not once per sweep.
func TestGCSweepOrder(t *testing.T) {
	eng := NewEngine()
	s := eng.NewSession("")
	exec := func(qs ...string) {
		t.Helper()
		for _, q := range qs {
			if _, err := s.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	order := func() string {
		names := map[*Table]string{}
		for dk, db := range eng.dbs {
			for tk, tbl := range db.tables {
				names[tbl] = dk + "." + tk
			}
		}
		var out []string
		for _, tbl := range eng.swept {
			out = append(out, names[tbl])
		}
		return strings.Join(out, " ")
	}
	check := func(want string) {
		t.Helper()
		if got := order(); got != want {
			t.Errorf("sweep order %q, want %q", got, want)
		}
	}
	exec("CREATE DATABASE b", "CREATE TABLE b.z (id BIGINT PRIMARY KEY)", "CREATE TABLE b.a (id BIGINT PRIMARY KEY)")
	check("b.a b.z")
	exec("CREATE DATABASE a", "CREATE TABLE a.m (id BIGINT PRIMARY KEY)")
	check("a.m b.a b.z")
	exec("CREATE TABLE b.c (id BIGINT PRIMARY KEY)")
	check("a.m b.a b.c b.z")
	exec("CREATE DATABASE c")
	check("a.m b.a b.c b.z")
	exec("INSERT INTO a.m VALUES (1)", "UPDATE a.m SET id = 2", "DELETE FROM a.m")
	eng.gc()
	if n := testing.AllocsPerRun(100, eng.gc); n != 0 {
		t.Errorf("a sweep with nothing to prune allocated %.1f objects", n)
	}

	re := NewEngine()
	if err := re.Restore(eng.Snapshot()); err != nil {
		t.Fatal(err)
	}
	eng = re
	check("a.m b.a b.c b.z")
}
