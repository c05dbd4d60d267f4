package sqlengine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The reference model of the row store: slices and maps, no slabs, no
// buckets, no chains. A row is its full history of images; the heap and the
// graveyard are slices; bucket order is derived from a sequence number bumped
// whenever a row (re)enters the indexes. Undo is a list of closures that put
// things back the way the store does — an undone delete returns to the END of
// the heap, an undone rewrite moves the row to the end of its buckets.

const pend = ^uint64(0) // a stamp not committed yet

type mver struct {
	img        [3]int64
	begin, end uint64 // end 0: the current image
}

type mrow struct {
	hist []mver // oldest first; the last one is current
	del  uint64 // commit version of the delete (0: live)
	seq  int
}

func (r *mrow) cur() *mver { return &r.hist[len(r.hist)-1] }

type model struct {
	heap, dead              []*mrow
	undo                    []func()
	seq, since              int
	commitV                 uint64
	runs, versions, reclaim uint64
}

func (m *model) enter(r *mrow) { m.seq++; r.seq = m.seq }

func (m *model) insert(img [3]int64) {
	r := &mrow{hist: []mver{{img: img, begin: pend}}}
	m.enter(r)
	m.heap = append(m.heap, r)
	m.undo = append(m.undo, func() { m.heap = drop(m.heap, r) })
}

func (m *model) update(r *mrow, grp int64) {
	old := *r.cur()
	if old.begin != pend { // committed: supersede it; provisional: in place
		r.cur().end = pend
		r.hist = append(r.hist, mver{img: old.img, begin: pend})
	}
	r.cur().img[1] = grp
	m.enter(r)
	m.undo = append(m.undo, func() {
		if old.begin != pend {
			r.hist = r.hist[:len(r.hist)-1]
		}
		*r.cur() = old
		m.enter(r)
	})
}

func (m *model) delete(r *mrow) {
	m.heap, m.dead, r.del = drop(m.heap, r), append(m.dead, r), pend
	m.undo = append(m.undo, func() {
		m.heap, m.dead, r.del = append(m.heap, r), drop(m.dead, r), 0
		m.enter(r)
	})
}

func (m *model) rollback() {
	for i := len(m.undo) - 1; i >= 0; i-- {
		m.undo[i]()
	}
	m.undo = nil
}

// commit stamps everything pending with the next version and, every gcEvery
// commits, sweeps at horizon() — the oldest version a reader still holds.
func (m *model) commit(horizon func() uint64) {
	if len(m.undo) == 0 {
		return // wrote nothing: not a commit
	}
	m.undo = nil
	m.commitV++
	for _, r := range append(append([]*mrow(nil), m.heap...), m.dead...) {
		for i := range r.hist {
			if r.hist[i].begin == pend {
				r.hist[i].begin = m.commitV
			}
			if r.hist[i].end == pend {
				r.hist[i].end = m.commitV
			}
		}
		if r.del == pend {
			r.del = m.commitV
		}
	}
	if m.since++; m.since >= gcEvery {
		m.since = 0
		m.sweep(horizon())
	}
}

// sweep drops every superseded image and every deleted row that no reader at
// or above min can see.
func (m *model) sweep(min uint64) {
	m.runs++
	kept := m.dead[:0]
	for _, r := range append(append([]*mrow(nil), m.heap...), m.dead...) {
		if r.del != 0 && r.del <= min {
			m.reclaim, m.versions = m.reclaim+1, m.versions+uint64(len(r.hist)-1)
			continue
		}
		for len(r.hist) > 1 && r.hist[0].end <= min {
			r.hist, m.versions = r.hist[1:], m.versions+1
		}
		if r.del != 0 {
			kept = append(kept, r)
		}
	}
	m.dead = kept
}

// visible returns id → image as a reader at version v sees the table.
func (m *model) visible(v uint64) map[int64][3]int64 {
	out := map[int64][3]int64{}
	for _, r := range append(append([]*mrow(nil), m.heap...), m.dead...) {
		for _, h := range r.hist {
			if h.begin <= v && (h.end == 0 || h.end > v) && (r.del == 0 || r.del > v) {
				out[h.img[0]] = h.img
			}
		}
	}
	return out
}

func drop(rows []*mrow, r *mrow) []*mrow {
	for i, x := range rows {
		if x == r {
			return append(rows[:i:i], rows[i+1:]...)
		}
	}
	return rows
}

func ids(imgs [][]Value) []int64 {
	out := make([]int64, len(imgs))
	for i, img := range imgs {
		out[i] = img[0].Int()
	}
	return out
}

// TestStoreAgainstModel drives the engine and the model side by side through
// seeded random write sequences and compares, after every step, everything
// the store lets a statement observe.
func TestStoreAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { storeAgainstModel(t, seed, 2500) })
	}
}

func storeAgainstModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	w := eng.NewSession("")
	exec := func(sql string, args ...Value) error {
		t.Helper()
		_, err := w.Exec(sql, args...)
		return err
	}
	for _, q := range []string{"CREATE DATABASE d", "USE d",
		"CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, u BIGINT, INDEX ig (grp), UNIQUE INDEX uq (u))"} {
		if err := exec(q); err != nil {
			t.Fatal(err)
		}
	}
	db, _ := eng.Database("d")
	tbl, _ := db.Table("t")
	st := &tbl.store

	m := &model{}
	var pins []*SnapshotHandle
	inTxn, txnV, nextID := false, uint64(0), int64(0)
	horizon := func() uint64 {
		min := m.commitV
		for _, h := range pins {
			if h.Version() < min {
				min = h.Version()
			}
		}
		if inTxn && txnV < min { // a committing transaction still counts as a reader
			min = txnV
		}
		return min
	}
	fresh := func() [3]int64 { nextID++; return [3]int64{nextID, rng.Int63n(4), nextID * 10} }
	args := func(img [3]int64) []Value { return []Value{NewInt(img[0]), NewInt(img[1]), NewInt(img[2])} }

	for step := 0; step < steps; step++ {
		op, what := rng.Intn(100), ""
		switch {
		case op < 30 && len(m.heap) < 40 || len(m.heap) == 0:
			img := fresh()
			what = fmt.Sprint("insert ", img)
			if err := exec("INSERT INTO t (id, grp, u) VALUES (?, ?, ?)", args(img)...); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			m.insert(img)
		case op < 55:
			r, grp := m.heap[rng.Intn(len(m.heap))], rng.Int63n(4)
			what = fmt.Sprint("update ", r.cur().img[0], " grp=", grp)
			if err := exec("UPDATE t SET grp = ? WHERE id = ?", NewInt(grp), NewInt(r.cur().img[0])); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			m.update(r, grp)
		case op < 70:
			r := m.heap[rng.Intn(len(m.heap))]
			what = fmt.Sprint("delete ", r.cur().img[0])
			if err := exec("DELETE FROM t WHERE id = ?", NewInt(r.cur().img[0])); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			m.delete(r)
		case op < 78:
			// A four-row insert whose row k collides on the unique index:
			// rows before k go in and must come out again.
			rows, k := [4][3]int64{fresh(), fresh(), fresh(), fresh()}, rng.Intn(4)
			rows[k][2] = m.heap[rng.Intn(len(m.heap))].cur().img[2]
			what = fmt.Sprint("failing insert at row ", k)
			var flat []Value
			for _, img := range rows {
				flat = append(flat, args(img)...)
			}
			err := exec("INSERT INTO t (id, grp, u) VALUES (?, ?, ?), (?, ?, ?), (?, ?, ?), (?, ?, ?)", flat...)
			if !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("step %d %s: err = %v, want duplicate key", step, what, err)
			}
		case op < 84 && !inTxn:
			what = "begin"
			if err := exec("BEGIN"); err != nil {
				t.Fatal(err)
			}
			inTxn, txnV = true, m.commitV
			continue // nothing to compare yet; the next write opens the undo list
		case op < 92 && inTxn:
			what = "rollback"
			if err := exec("ROLLBACK"); err != nil {
				t.Fatal(err)
			}
			m.rollback()
			inTxn = false
		case op < 95 && len(pins) < 4:
			what = "pin"
			pins = append(pins, eng.Pin())
		case op < 97:
			what = "gc"
			eng.mu.Lock()
			eng.gcLocked()
			eng.mu.Unlock()
			m.sweep(horizon())
		case len(pins) > 0:
			what = "unpin"
			i := rng.Intn(len(pins))
			pins[i].Close()
			pins = append(pins[:i], pins[i+1:]...)
		default:
			continue
		}
		if inTxn && rng.Intn(6) == 0 {
			what += " + commit"
			if err := exec("COMMIT"); err != nil {
				t.Fatal(err)
			}
			m.commit(horizon)
			inTxn = false
		} else if !inTxn {
			m.commit(horizon)
		}

		fail := func(format string, a ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d (%s): %s", seed, step, what, fmt.Sprintf(format, a...))
		}
		// Scan order and live count.
		want := make([]int64, len(m.heap))
		for i, r := range m.heap {
			want[i] = r.cur().img[0]
		}
		if got := ids(st.images(readView{}, nil)); !reflect.DeepEqual(got, want) {
			fail("heap order %v, model %v", got, want)
		}
		if tbl.NumRows() != len(m.heap) {
			fail("live count %d, model %d", tbl.NumRows(), len(m.heap))
		}
		// Bucket order under every key of the non-unique index.
		for grp := int64(0); grp < 4; grp++ {
			var in []*mrow
			for _, r := range m.heap {
				if r.cur().img[1] == grp {
					in = append(in, r)
				}
			}
			sort.Slice(in, func(i, j int) bool { return in[i].seq < in[j].seq })
			var cur rowCursor
			st.probe(1, NewInt(grp), &cur)
			if cur.len() != len(in) {
				fail("bucket grp=%d holds %d rows, model %d", grp, cur.len(), len(in))
			}
			for _, r := range in {
				if img, _ := cur.next(); img[0].Int() != r.cur().img[0] {
					fail("bucket grp=%d has id %d where the model has %d", grp, img[0].Int(), r.cur().img[0])
				}
			}
		}
		// The committed state and every pinned version, chain-resolved.
		for _, v := range append([]uint64{m.commitV}, pinned(pins)...) {
			got := map[int64][3]int64{}
			for _, img := range st.images(readView{at: v, chains: true}, nil) {
				got[img[0].Int()] = [3]int64{img[0].Int(), img[1].Int(), img[2].Int()}
			}
			if want := m.visible(v); !reflect.DeepEqual(got, want) {
				fail("at version %d the store shows %v, model %v", v, got, want)
			}
		}
		if v := eng.CommitVersion(); v != m.commitV {
			fail("commit version %d, model %d", v, m.commitV)
		}
		if runs, versions, rows := eng.GCStats(); runs != m.runs || versions != m.versions || rows != m.reclaim {
			fail("gc counters (%d, %d, %d), model (%d, %d, %d)", runs, versions, rows, m.runs, m.versions, m.reclaim)
		}
	}
}

func pinned(pins []*SnapshotHandle) []uint64 {
	out := make([]uint64, len(pins))
	for i, h := range pins {
		out[i] = h.Version()
	}
	return out
}

// TestCompositeKeysDoNotCollide: a multi-column key's rendering is
// self-delimiting. Joined with a bare 0x1f, ('a\x1fsb', 'c') and
// ('a', 'b\x1fsc') rendered alike and the second INSERT failed with a false
// duplicate-key error, under a composite primary key and a composite unique
// index alike — and GROUP BY a, b folded them into one group.
func TestCompositeKeysDoNotCollide(t *testing.T) {
	eng := NewEngine()
	s := eng.NewSession("")
	for _, q := range []string{"CREATE DATABASE d", "USE d",
		"CREATE TABLE p (a VARCHAR(16), b VARCHAR(16), PRIMARY KEY (a, b))",
		"CREATE TABLE u (id BIGINT PRIMARY KEY, a VARCHAR(16), b VARCHAR(16), UNIQUE INDEX uq (a, b))"} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	pairs := [][2]string{{"a\x1fsb", "c"}, {"a", "b\x1fsc"}}
	for i, p := range pairs {
		if _, err := s.Exec("INSERT INTO p (a, b) VALUES (?, ?)", NewString(p[0]), NewString(p[1])); err != nil {
			t.Fatalf("composite primary key, row %d: %v", i, err)
		}
		if _, err := s.Exec("INSERT INTO u (id, a, b) VALUES (?, ?, ?)", NewInt(int64(i)), NewString(p[0]), NewString(p[1])); err != nil {
			t.Fatalf("composite unique index, row %d: %v", i, err)
		}
	}
	// Real duplicates are still refused.
	if _, err := s.Exec("INSERT INTO p (a, b) VALUES (?, ?)", NewString("a"), NewString("b\x1fsc")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate composite primary key: err = %v", err)
	}
	if _, err := s.Exec("INSERT INTO u (id, a, b) VALUES (9, ?, ?)", NewString("a\x1fsb"), NewString("c")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate composite unique key: err = %v", err)
	}
	set, err := s.Query("SELECT a, b, COUNT(*) FROM p GROUP BY a, b")
	if err != nil || len(set.Rows) != 2 {
		t.Fatalf("GROUP BY a, b: %d groups (err %v), want 2", len(set.Rows), err)
	}
}

// TestGCFollowsWrites: a chain-GC sweep visits the rows written since the
// last sweep — the chained list and the graveyard — whatever the table holds.
func TestGCFollowsWrites(t *testing.T) {
	for _, size := range []int{2000, 60000} {
		eng := NewEngine()
		s := eng.NewSession("")
		for _, q := range []string{"CREATE DATABASE d", "USE d", "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)"} {
			if _, err := s.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < size; i++ {
			if _, err := s.Exec("INSERT INTO t (id, v) VALUES (?, 0)", NewInt(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		db, _ := eng.Database("d")
		tbl, _ := db.Table("t")
		st := &tbl.store
		eng.mu.Lock()
		eng.gcLocked() // start a fresh sweep interval
		eng.sinceGC = 0
		eng.mu.Unlock()
		runs, versions, rows := eng.GCStats()

		// gcEvery-1 commits: 40 rewrites and 23 deletes. What the next sweep
		// will walk is exactly the rows these touched.
		for i := 0; i < gcEvery-1; i++ {
			q := "UPDATE t SET v = v + 1 WHERE id = ?"
			if i >= 40 {
				q = "DELETE FROM t WHERE id = ?"
			}
			if _, err := s.Exec(q, NewInt(int64(i*(size/gcEvery)))); err != nil {
				t.Fatal(err)
			}
		}
		if visit := len(st.chained) + len(st.graveyard); visit != gcEvery-1 {
			t.Fatalf("%d rows: the sweep would visit %d rows after %d one-row writes", size, visit, gcEvery-1)
		}
		// The 64th commit sweeps: with no reader behind, everything goes.
		if _, err := s.Exec("UPDATE t SET v = v + 1 WHERE id = ?", NewInt(int64(size-1))); err != nil {
			t.Fatal(err)
		}
		r2, v2, d2 := eng.GCStats()
		if r2 != runs+1 || v2 != versions+41 || d2 != rows+23 {
			t.Fatalf("%d rows: sweep counters moved by (%d, %d, %d), want (1, 41, 23)", size, r2-runs, v2-versions, d2-rows)
		}
		if left := len(st.chained) + len(st.graveyard); left != 0 {
			t.Fatalf("%d rows: %d rows still listed after a sweep nothing holds back", size, left)
		}
	}
}
