package sqlengine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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

// at returns the model of an engine restored from an image of this one taken
// at version v: every row a reader at v sees, in the order the store scans
// them (the heap, then the graveyard), each with the one image that reader
// sees and its begin stamp; no history, nothing pending; the counters and the
// sweep phase as they stand now.
func (m *model) at(v uint64) *model {
	f := &model{commitV: v, since: m.since, runs: m.runs, versions: m.versions, reclaim: m.reclaim}
	for _, r := range append(append([]*mrow(nil), m.heap...), m.dead...) {
		if r.del != 0 && r.del <= v {
			continue
		}
		for _, h := range r.hist {
			if h.begin <= v && (h.end == 0 || h.end > v) {
				nr := &mrow{hist: []mver{{img: h.img, begin: h.begin}}}
				f.enter(nr)
				f.heap = append(f.heap, nr)
			}
		}
	}
	return f
}

// TestStoreAgainstModel drives the engine and the model side by side through
// seeded random write sequences and compares, after every step, everything
// the store lets a statement observe. At seeded points — an open transaction
// and older versions held by readers included — it takes the engine's image,
// at the current version or a held one, restores it onto a new engine and
// drives that one on against the model of what the image held, while the
// source goes on against its own.
func TestStoreAgainstModel(t *testing.T) {
	midTxn, older := 0, 0 // images taken with a transaction open, and of a version behind the latest
	defer func() {
		if !t.Failed() && (midTxn == 0 || older == 0) {
			t.Errorf("%d images taken mid-transaction and %d of an older held version: want some of each", midTxn, older)
		}
	}()
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := newStoreRun(t, fmt.Sprint("seed ", seed), seed, NewEngine(), &model{}, 0)
			for _, q := range []string{"CREATE DATABASE d", "USE d", storeRunTable} {
				if _, err := r.w.Exec(q); err != nil {
					t.Fatal(err)
				}
			}
			r.bind()
			forks := 0
			for step := 0; step < 2500; step++ {
				r.step(step)
				if r.rng.Intn(300) != 0 {
					continue
				}
				// Fork: every second time from the oldest held version, if any.
				v, snap := r.m.commitV, (*Snapshot)(nil)
				if forks++; forks%2 == 0 && len(r.readers) > 0 {
					v = r.readers[0].readV
					snap = r.eng.snapshotAt(v)
				} else {
					snap = r.eng.Snapshot()
				}
				if r.inTxn {
					midTxn++
				}
				if v < r.m.commitV {
					older++
				}
				eng := NewEngine()
				if err := eng.Restore(snap); err != nil {
					t.Fatalf("seed %d step %d: restore at version %d: %v", seed, step, v, err)
				}
				f := newStoreRun(t, fmt.Sprintf("seed %d, restored at step %d (txn open: %v, version %d of %d)", seed, step, r.inTxn, v, r.m.commitV),
					seed*1000+int64(step), eng, r.m.at(v), r.nextID)
				f.bind()
				f.compare(-1, "restore")
				for fs := 0; fs < 200; fs++ {
					f.step(fs)
				}
			}
			if forks < 3 {
				t.Fatalf("seed %d forked %d times: the restore half of the test did not run", seed, forks)
			}
		})
	}
}

const storeRunTable = "CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, u BIGINT, INDEX ig (grp), UNIQUE INDEX uq (u))"

// storeRun is one engine driven beside its model.
type storeRun struct {
	t    *testing.T
	name string
	rng  *rand.Rand
	eng  *Engine
	w    *Session
	tbl  *Table
	st   *rowStore
	m    *model

	readers []*Session // read-only transactions, each holding its read version
	inTxn   bool
	txnV    uint64
	nextID  int64
}

func newStoreRun(t *testing.T, name string, seed int64, eng *Engine, m *model, nextID int64) *storeRun {
	return &storeRun{t: t, name: name, rng: rand.New(rand.NewSource(seed)), eng: eng, w: eng.NewSession(""), m: m, nextID: nextID}
}

// bind finds the table once it exists.
func (r *storeRun) bind() {
	if err := r.w.Use("d"); err != nil {
		r.t.Fatal(err)
	}
	db, _ := r.eng.Database("d")
	r.tbl, _ = db.Table("t")
	r.st = &r.tbl.store
}

func (r *storeRun) exec(sql string, args ...Value) error {
	r.t.Helper()
	_, err := r.w.Exec(sql, args...)
	return err
}

// horizon is the oldest version a reader still holds.
func (r *storeRun) horizon() uint64 {
	min := r.m.commitV
	for _, h := range r.readers {
		if h.readV < min {
			min = h.readV
		}
	}
	if r.inTxn && r.txnV < min { // a committing transaction still counts as a reader
		min = r.txnV
	}
	return min
}

func (r *storeRun) step(step int) {
	t, rng, m, eng, exec := r.t, r.rng, r.m, r.eng, r.exec
	fresh := func() [3]int64 { r.nextID++; return [3]int64{r.nextID, rng.Int63n(4), r.nextID * 10} }
	args := func(img [3]int64) []Value { return []Value{NewInt(img[0]), NewInt(img[1]), NewInt(img[2])} }

	op, what := rng.Intn(100), ""
	switch {
	case op < 30 && len(m.heap) < 40 || len(m.heap) == 0:
		img := fresh()
		what = fmt.Sprint("insert ", img)
		if err := exec("INSERT INTO t (id, grp, u) VALUES (?, ?, ?)", args(img)...); err != nil {
			t.Fatalf("%s step %d %s: %v", r.name, step, what, err)
		}
		m.insert(img)
	case op < 55:
		row, grp := m.heap[rng.Intn(len(m.heap))], rng.Int63n(4)
		what = fmt.Sprint("update ", row.cur().img[0], " grp=", grp)
		if err := exec("UPDATE t SET grp = ? WHERE id = ?", NewInt(grp), NewInt(row.cur().img[0])); err != nil {
			t.Fatalf("%s step %d %s: %v", r.name, step, what, err)
		}
		m.update(row, grp)
	case op < 70:
		row := m.heap[rng.Intn(len(m.heap))]
		what = fmt.Sprint("delete ", row.cur().img[0])
		if err := exec("DELETE FROM t WHERE id = ?", NewInt(row.cur().img[0])); err != nil {
			t.Fatalf("%s step %d %s: %v", r.name, step, what, err)
		}
		m.delete(row)
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
			t.Fatalf("%s step %d %s: err = %v, want duplicate key", r.name, step, what, err)
		}
	case op < 84 && !r.inTxn:
		if err := exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		r.inTxn, r.txnV = true, m.commitV
		return // nothing to compare yet; the next write opens the undo list
	case op < 92 && r.inTxn:
		what = "rollback"
		if err := exec("ROLLBACK"); err != nil {
			t.Fatal(err)
		}
		m.rollback()
		r.inTxn = false
	case op < 95 && len(r.readers) < 4:
		what = "hold"
		h := eng.NewSession("")
		if _, err := h.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		r.readers = append(r.readers, h)
	case op < 97:
		what = "gc"
		eng.gc()
		m.sweep(r.horizon())
	case len(r.readers) > 0:
		what = "release"
		i := rng.Intn(len(r.readers))
		if _, err := r.readers[i].Exec("COMMIT"); err != nil {
			t.Fatal(err)
		}
		r.readers = append(r.readers[:i], r.readers[i+1:]...)
	default:
		return
	}
	if r.inTxn && rng.Intn(6) == 0 {
		what += " + commit"
		if err := exec("COMMIT"); err != nil {
			t.Fatal(err)
		}
		m.commit(r.horizon)
		r.inTxn = false
	} else if !r.inTxn {
		m.commit(r.horizon)
	}
	r.compare(step, what)
}

// compare holds the store to the model in everything a statement can observe.
func (r *storeRun) compare(step int, what string) {
	t, m, st, tbl, eng := r.t, r.m, r.st, r.tbl, r.eng
	fail := func(format string, a ...any) {
		t.Helper()
		t.Fatalf("%s step %d (%s): %s", r.name, step, what, fmt.Sprintf(format, a...))
	}
	// Scan order and live count.
	want := make([]int64, len(m.heap))
	for i, row := range m.heap {
		want[i] = row.cur().img[0]
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
		for _, row := range m.heap {
			if row.cur().img[1] == grp {
				in = append(in, row)
			}
		}
		sort.Slice(in, func(i, j int) bool { return in[i].seq < in[j].seq })
		var cur rowCursor
		st.probe(1, NewInt(grp), &cur)
		if cur.len() != len(in) {
			fail("bucket grp=%d holds %d rows, model %d", grp, cur.len(), len(in))
		}
		for _, row := range in {
			if img, _ := cur.next(); img[0].Int() != row.cur().img[0] {
				fail("bucket grp=%d has id %d where the model has %d", grp, img[0].Int(), row.cur().img[0])
			}
		}
	}
	// The committed state and every held version, chain-resolved.
	vs := []uint64{m.commitV}
	for _, h := range r.readers {
		vs = append(vs, h.readV)
	}
	for _, v := range vs {
		got := map[int64][3]int64{}
		for _, img := range st.images(readView{at: v, chains: true}, nil) {
			got[img[0].Int()] = [3]int64{img[0].Int(), img[1].Int(), img[2].Int()}
		}
		if want := m.visible(v); !reflect.DeepEqual(got, want) {
			fail("at version %d the store shows %v, model %v", v, got, want)
		}
	}
	// Begin stamps of the committed images in the heap.
	for i, row := range m.heap {
		if c := row.cur(); c.begin != pend && st.rows[i].begin != c.begin {
			fail("row %d begins at %d, model %d", c.img[0], st.rows[i].begin, c.begin)
		}
	}
	if v := eng.CommitVersion(); v != m.commitV {
		fail("commit version %d, model %d", v, m.commitV)
	}
	if runs, versions, rows := eng.GCStats(); runs != m.runs || versions != m.versions || rows != m.reclaim {
		fail("gc counters (%d, %d, %d), model (%d, %d, %d)", runs, versions, rows, m.runs, m.versions, m.reclaim)
	}
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
		eng.gc() // start a fresh sweep interval
		eng.sinceGC = 0
		runs, versions, rows := eng.GCStats()

		// gcEvery-1 commits: 40 rewrites and 23 deletes. What the next sweep
		// will walk is exactly the rows these touched.
		for i := 0; i < gcEvery-1; i++ {
			q := "UPDATE t SET v = -1 WHERE id = ?"
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
		if _, err := s.Exec("UPDATE t SET v = -1 WHERE id = ?", NewInt(int64(size-1))); err != nil {
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

// mallocs returns the heap objects f allocates.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

var allocSink []byte

// TestIndexMaintenanceAllocs: on a warm index — postings its store has given
// back waiting on the free list — maintaining a bucket allocates nothing.
// Entering a key's second row (where a slice-backed bucket was promoted), its
// fifth, ninth and sixty-fifth (where the slice grew) and every row between,
// removing a head, a middle and a tail row, and rewriting a row into another
// bucket all count 0 objects, and the bucket keeps its order throughout. Only
// a key's first row may grow the map, and is not counted.
func TestIndexMaintenanceAllocs(t *testing.T) {
	if mallocs(func() { allocSink = make([]byte, 64) }) == 0 {
		t.Fatal("the counter does not see an allocation")
	}
	var ps postings
	ix := &Index{Name: "ig", Cols: []int{1}}
	rowsOf := func(grp int64, n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i].vals = []Value{NewInt(int64(i)), NewInt(grp)}
		}
		return rows
	}
	warm := rowsOf(9, 100)
	for i := range warm {
		ix.add(&warm[i], &ps)
	}
	for i := range warm {
		ix.remove(&warm[i], &ps)
	}
	rows := rowsOf(7, 70)
	ix.add(&rows[0], &ps)
	for i := 1; i < len(rows); i++ {
		if n := mallocs(func() { ix.add(&rows[i], &ps) }); n != 0 {
			t.Errorf("entering a bucket's row %d allocated %d objects", i+1, n)
		}
	}
	for _, i := range []int{0, 35, len(rows) - 1} {
		if n := mallocs(func() { ix.remove(&rows[i], &ps) }); n != 0 {
			t.Errorf("removing row %d of a bucket allocated %d objects", i+1, n)
		}
	}
	b, _ := ix.buckets.get(NewInt(7).hashKey())
	var want []*Row
	for i := range rows {
		if i != 0 && i != 35 && i != len(rows)-1 {
			want = append(want, &rows[i])
		}
	}
	if got := b.rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("after the removes the bucket holds %d rows, out of order or not the %d left", len(got), len(want))
	}

	tbl := newKVTable(t)
	for id := range 80 {
		if _, err := tbl.Insert([]Value{NewInt(int64(id)), NewInt(int64(id % 2)), NewString("v")}); err != nil {
			t.Fatal(err)
		}
	}
	r := lookupPK(tbl, 40)
	imgs := [2][]Value{{NewInt(40), NewInt(1), NewString("v")}, {NewInt(40), NewInt(0), NewString("v")}}
	for i, img := range imgs {
		if n := mallocs(func() {
			if err := tbl.store.reimage(r, img); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("reimage %d, into group %d, allocated %d objects", i+1, img[1].Int(), n)
		}
	}
	if err := checkConsistent(tbl); err != nil {
		t.Fatal(err)
	}
}
