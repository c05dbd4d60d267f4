package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestExecutorAgainstNaiveOracle cross-checks the planner/executor (index
// selection, candidate pruning) against a brute-force evaluation of the
// same predicate over every row: for many random WHERE clauses, SELECT must
// return exactly the rows the predicate admits, regardless of which access
// path the planner picks.
func TestExecutorAgainstNaiveOracle(t *testing.T) {
	eng := NewEngine()
	if err := eng.CreateDatabase("d", false); err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession("d")
	if _, err := s.Exec(`CREATE TABLE rows (
		id BIGINT PRIMARY KEY, grp BIGINT, val BIGINT, name VARCHAR(20),
		INDEX idx_grp (grp))`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	type rowT struct {
		id, grp, val int64
		name         string
	}
	var rows []rowT
	for i := 0; i < 200; i++ {
		r := rowT{
			id:   int64(i),
			grp:  int64(rng.Intn(8)),
			val:  int64(rng.Intn(50)),
			name: fmt.Sprintf("n%02d", rng.Intn(30)),
		}
		rows = append(rows, r)
		if _, err := s.Exec("INSERT INTO rows (id, grp, val, name) VALUES (?, ?, ?, ?)",
			NewInt(r.id), NewInt(r.grp), NewInt(r.val), NewString(r.name)); err != nil {
			t.Fatal(err)
		}
	}

	type pred struct {
		sql  string
		args []Value
		eval func(rowT) bool
	}
	mkPred := func() pred {
		switch rng.Intn(8) {
		case 0:
			v := int64(rng.Intn(220))
			return pred{"id = ?", []Value{NewInt(v)}, func(r rowT) bool { return r.id == v }}
		case 1:
			g := int64(rng.Intn(10))
			return pred{"grp = ?", []Value{NewInt(g)}, func(r rowT) bool { return r.grp == g }}
		case 2:
			v := int64(rng.Intn(50))
			return pred{"val > ?", []Value{NewInt(v)}, func(r rowT) bool { return r.val > v }}
		case 3:
			g := int64(rng.Intn(8))
			v := int64(rng.Intn(50))
			return pred{"grp = ? AND val <= ?", []Value{NewInt(g), NewInt(v)},
				func(r rowT) bool { return r.grp == g && r.val <= v }}
		case 4:
			a, b := int64(rng.Intn(50)), int64(rng.Intn(50))
			return pred{"val BETWEEN ? AND ?", []Value{NewInt(a), NewInt(b)},
				func(r rowT) bool { return r.val >= a && r.val <= b }}
		case 5:
			g1, g2 := int64(rng.Intn(8)), int64(rng.Intn(8))
			return pred{"grp IN (?, ?)", []Value{NewInt(g1), NewInt(g2)},
				func(r rowT) bool { return r.grp == g1 || r.grp == g2 }}
		case 6:
			n := fmt.Sprintf("n%02d", rng.Intn(30))
			return pred{"name = ?", []Value{NewString(n)}, func(r rowT) bool { return r.name == n }}
		default:
			g := int64(rng.Intn(8))
			v := int64(rng.Intn(50))
			return pred{"grp = ? OR val = ?", []Value{NewInt(g), NewInt(v)},
				func(r rowT) bool { return r.grp == g || r.val == v }}
		}
	}

	for trial := 0; trial < 300; trial++ {
		p := mkPred()
		set, err := s.Query("SELECT id FROM rows WHERE "+p.sql, p.args...)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, p.sql, err)
		}
		got := map[int64]bool{}
		for _, r := range set.Rows {
			if got[r[0].Int()] {
				t.Fatalf("trial %d (%s): duplicate id %d", trial, p.sql, r[0].Int())
			}
			got[r[0].Int()] = true
		}
		want := map[int64]bool{}
		for _, r := range rows {
			if p.eval(r) {
				want[r.id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (%s args %v): got %d rows, want %d", trial, p.sql, p.args, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d (%s): missing id %d", trial, p.sql, id)
			}
		}
	}
}

// TestUpdateDeleteAgainstOracle cross-checks mutation statements the same
// way: the set of surviving rows must equal the brute-force expectation.
func TestUpdateDeleteAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		eng := NewEngine()
		eng.CreateDatabase("d", false)
		s := eng.NewSession("d")
		s.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, INDEX idx_grp (grp))")
		live := map[int64]int64{} // id -> grp
		for i := 0; i < 60; i++ {
			g := int64(rng.Intn(5))
			live[int64(i)] = g
			if _, err := s.Exec("INSERT INTO t (id, grp) VALUES (?, ?)", NewInt(int64(i)), NewInt(g)); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 20; step++ {
			g := int64(rng.Intn(5))
			if rng.Intn(2) == 0 {
				res, err := s.Exec("DELETE FROM t WHERE grp = ?", NewInt(g))
				if err != nil {
					t.Fatal(err)
				}
				expect := 0
				for id, grp := range live {
					if grp == g {
						delete(live, id)
						expect++
					}
				}
				if res.Stats.RowsAffected != expect {
					t.Fatalf("delete affected %d, want %d", res.Stats.RowsAffected, expect)
				}
			} else {
				ng := int64(rng.Intn(5))
				res, err := s.Exec("UPDATE t SET grp = ? WHERE grp = ?", NewInt(ng), NewInt(g))
				if err != nil {
					t.Fatal(err)
				}
				expect := 0
				for id, grp := range live {
					if grp == g {
						live[id] = ng
						if ng != g {
							expect++
						} else {
							expect++ // engine counts assignments even when equal
						}
					}
				}
				if res.Stats.RowsAffected != expect {
					t.Fatalf("update affected %d, want %d", res.Stats.RowsAffected, expect)
				}
			}
			// Verify the full surviving state via the indexed path.
			for g := int64(0); g < 5; g++ {
				set, err := s.Query("SELECT COUNT(*) FROM t WHERE grp = ?", NewInt(g))
				if err != nil {
					t.Fatal(err)
				}
				want := int64(0)
				for _, grp := range live {
					if grp == g {
						want++
					}
				}
				if set.Rows[0][0].Int() != want {
					t.Fatalf("grp %d count %v, want %d", g, set.Rows[0][0], want)
				}
			}
		}
	}
}

// TestConcurrentSnapshotAgainstOracle interleaves autocommit writers,
// multi-statement transactions and snapshot readers, checking every read
// against a version-indexed oracle: each commit records the full table
// state, and a reader at version v — an open transaction or a materialized
// pin — must observe exactly the state recorded for v, never a torn mix.
func TestConcurrentSnapshotAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	eng := NewEngine()
	if err := eng.CreateDatabase("d", false); err != nil {
		t.Fatal(err)
	}
	w := eng.NewSession("d")
	if _, err := w.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT, INDEX idx_v (v))"); err != nil {
		t.Fatal(err)
	}
	live := map[int64]int64{}
	history := map[uint64]map[int64]int64{} // commit version -> full state
	record := func() {
		st := make(map[int64]int64, len(live))
		for k, v := range live {
			st[k] = v
		}
		history[eng.CommitVersion()] = st
	}
	record()

	checkState := func(got map[int64]int64, v uint64, what string) {
		t.Helper()
		want, ok := history[v]
		if !ok {
			t.Fatalf("%s at unrecorded version %d", what, v)
		}
		if len(got) != len(want) {
			t.Fatalf("%s at v%d: %d rows, want %d", what, v, len(got), len(want))
		}
		for id, val := range want {
			if got[id] != val {
				t.Fatalf("%s at v%d: id %d = %d, want %d", what, v, id, got[id], val)
			}
		}
	}
	readAll := func(s *Session) map[int64]int64 {
		t.Helper()
		set, err := s.Query("SELECT id, v FROM t")
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]int64{}
		for _, r := range set.Rows {
			got[r[0].Int()] = r[1].Int()
		}
		return got
	}

	type openTxn struct {
		s *Session
		v uint64
	}
	var txns []openTxn
	var writers []*Session
	var pins []*SnapshotHandle
	nextID := int64(0)
	// Writer transactions get disjoint id ranges: without row locks,
	// write-write overlap between an open transaction and autocommit
	// writers has no defined winner, and the oracle only models the
	// committed timeline.
	wBase := int64(1_000_000)
	mutate := func(s *Session, base, n int64) int64 {
		switch rng.Intn(3) {
		case 0:
			n++
			if _, err := s.Exec("INSERT INTO t (id, v) VALUES (?, ?)",
				NewInt(base+n), NewInt(int64(rng.Intn(1000)))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if n > 0 {
				if _, err := s.Exec("UPDATE t SET v = ? WHERE id = ?",
					NewInt(int64(rng.Intn(1000))), NewInt(base+int64(rng.Intn(int(n)))+1)); err != nil {
					t.Fatal(err)
				}
			}
		default:
			if n > 0 {
				if _, err := s.Exec("DELETE FROM t WHERE id = ?",
					NewInt(base+int64(rng.Intn(int(n)))+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return n
	}

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // autocommit write; the oracle tracks it immediately
			nextID++
			val := int64(rng.Intn(1000))
			switch rng.Intn(3) {
			case 0:
				if _, err := w.Exec("INSERT INTO t (id, v) VALUES (?, ?)", NewInt(nextID), NewInt(val)); err != nil {
					t.Fatal(err)
				}
				live[nextID] = val
			case 1:
				id := int64(rng.Intn(int(nextID))) + 1
				if _, err := w.Exec("UPDATE t SET v = ? WHERE id = ?", NewInt(val), NewInt(id)); err != nil {
					t.Fatal(err)
				}
				if _, ok := live[id]; ok {
					live[id] = val
				}
			default:
				id := int64(rng.Intn(int(nextID))) + 1
				if _, err := w.Exec("DELETE FROM t WHERE id = ?", NewInt(id)); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			}
			record()
		case op < 5: // open a read-only snapshot transaction (oracle-checked)
			s := eng.NewSession("d")
			if _, err := s.Exec("BEGIN"); err != nil {
				t.Fatal(err)
			}
			txns = append(txns, openTxn{s: s, v: s.ReadVersion()})
		case op < 6: // provisional-write noise: a writer txn others must not see
			s := eng.NewSession("d")
			if _, err := s.Exec("BEGIN"); err != nil {
				t.Fatal(err)
			}
			wBase += 1000
			var n int64
			for i := 0; i < 1+rng.Intn(3); i++ {
				n = mutate(s, wBase, n)
			}
			writers = append(writers, s)
		case op < 7 && len(txns)+len(writers) > 0: // end a transaction
			if len(writers) > 0 && (len(txns) == 0 || rng.Intn(2) == 0) {
				i := rng.Intn(len(writers))
				if _, err := writers[i].Exec("ROLLBACK"); err != nil {
					t.Fatal(err)
				}
				writers = append(writers[:i], writers[i+1:]...)
			} else {
				i := rng.Intn(len(txns))
				if _, err := txns[i].s.Exec("ROLLBACK"); err != nil {
					t.Fatal(err)
				}
				txns = append(txns[:i], txns[i+1:]...)
			}
			record() // rollback changes nothing; state maps to same version
		case op < 8:
			pins = append(pins, eng.Pin())
		case op < 9 && len(pins) > 0:
			i := rng.Intn(len(pins))
			pins[i].Close()
			pins = append(pins[:i], pins[i+1:]...)
		default: // verify every open reader sees its own version's state
			for _, tx := range txns {
				checkState(readAll(tx.s), tx.v, "txn read")
			}
			for _, h := range pins {
				snap := h.Materialize()
				got := map[int64]int64{}
				for _, d := range snap.dbs {
					for _, tb := range d.tables {
						for _, r := range tb.store.rows {
							got[r.vals[0].Int()] = r.vals[1].Int()
						}
					}
				}
				checkState(got, h.Version(), "pin materialize")
			}
		}
	}
	for _, tx := range txns {
		checkState(readAll(tx.s), tx.v, "final txn read")
		if _, err := tx.s.Exec("ROLLBACK"); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range writers {
		if _, err := s.Exec("ROLLBACK"); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range pins {
		h.Close()
	}
	// With every reader gone, GC must fully reclaim: the final state read
	// through a fresh session equals the oracle's last committed state.
	checkState(readAll(eng.NewSession("d")), eng.CommitVersion(), "final state")
}
