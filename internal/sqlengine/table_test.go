package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Insert adds a committed row the way an autocommit INSERT's put does —
// constraints enforced, values coerced, vals becoming the stored image — for
// tests that drive a Table without an engine around it.
func (t *Table) Insert(vals []Value) (*Row, error) {
	c, err := t.put(nil, vals, 0, nil)
	return c.r, err
}

func newKVTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("kv",
		[]ColumnDef{
			{Name: "id", Type: KindInt, PrimaryKey: true, NotNull: true},
			{Name: "grp", Type: KindInt},
			{Name: "val", Type: KindString},
		},
		nil,
		[]IndexDef{{Name: "idx_grp", Columns: []string{"grp"}}})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableInsertLookup(t *testing.T) {
	tbl := newKVTable(t)
	for i := 0; i < 10; i++ {
		if _, err := tbl.Insert([]Value{NewInt(int64(i)), NewInt(int64(i % 3)), NewString("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if r := lookupPK(tbl, 7); r == nil || r.Values()[0].Int() != 7 {
		t.Fatal("PK lookup failed")
	}
	pos, _ := tbl.ColPos("grp")
	var cur rowCursor
	// ids 0..9 with grp i%3==1: 1, 4, 7.
	if usable := tbl.store.probe(pos, NewInt(1), &cur); !usable || cur.len() != 3 {
		t.Fatalf("index lookup usable=%v found %d rows", usable, cur.len())
	}
}

// lookupPK probes tbl's single-column primary key for id.
func lookupPK(tbl *Table, id int64) *Row {
	var cur rowCursor
	if !tbl.store.probe(tbl.pkCols[0], NewInt(id), &cur) || cur.len() == 0 {
		return nil
	}
	cur.next()
	return cur.row()
}

func TestTableUniqueIndexViolation(t *testing.T) {
	tbl, err := NewTable("u",
		[]ColumnDef{
			{Name: "id", Type: KindInt, PrimaryKey: true, NotNull: true},
			{Name: "email", Type: KindString},
		},
		nil,
		[]IndexDef{{Name: "uq_email", Columns: []string{"email"}, Unique: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]Value{NewInt(1), NewString("a@x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]Value{NewInt(2), NewString("a@x")}); err == nil {
		t.Fatal("unique violation accepted")
	}
	// Failed insert must leave no trace.
	if tbl.NumRows() != 1 {
		t.Fatalf("rows = %d after failed insert", tbl.NumRows())
	}
	if lookupPK(tbl, 2) != nil {
		t.Fatal("phantom PK entry after failed insert")
	}
}

func TestTableUpdatePKMove(t *testing.T) {
	tbl := newKVTable(t)
	r, _ := tbl.Insert([]Value{NewInt(1), NewInt(0), NewString("a")})
	tbl.Insert([]Value{NewInt(2), NewInt(0), NewString("b")})
	// Moving PK 1 onto existing 2 must fail cleanly.
	if _, err := tbl.put(r, []Value{NewInt(2), NewInt(0), NewString("a")}, 0, nil); err == nil {
		t.Fatal("PK collision on update accepted")
	}
	if lookupPK(tbl, 1) != r {
		t.Fatal("failed update corrupted PK index")
	}
	// Moving to a fresh key works and old key disappears.
	if _, err := tbl.put(r, []Value{NewInt(9), NewInt(0), NewString("a")}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if lookupPK(tbl, 1) != nil {
		t.Fatal("old PK entry survives update")
	}
	if lookupPK(tbl, 9) != r {
		t.Fatal("new PK entry missing")
	}
}

// checkConsistent verifies the structural invariants between heap, PK map
// and secondary indexes: every bucket is a circular list of its n postings —
// n steps from the tail's next lead back to the tail — each posting's row
// files under the bucket's key, no posting sits in two buckets, and none the
// store has given back is reachable from a bucket.
func checkConsistent(tbl *Table) error {
	st := &tbl.store
	for _, r := range st.rows {
		if b, _ := st.pk.buckets.get(st.pk.key(r.vals)); b.n != 1 || b.tail.r != r {
			return fmt.Errorf("heap row missing from pk map")
		}
	}
	listed := map[*posting]bool{}
	for _, ix := range st.keyed {
		n := 0
		var err error
		ix.buckets.each(func(k hashKey, b bucket) {
			if b.n < 1 || b.tail == nil {
				err = fmt.Errorf("index %s holds a bucket of %d rows, tail %p", ix.Name, b.n, b.tail)
				return
			}
			p := b.tail
			for range b.n {
				p = p.next
				if listed[p] {
					err = fmt.Errorf("index %s: a posting is in two buckets, or twice in one", ix.Name)
					return
				}
				listed[p] = true
				if p.r == nil || ix.key(p.r.vals) != k {
					err = fmt.Errorf("index %s entry under stale key", ix.Name)
					return
				}
				n++
			}
			if p != b.tail {
				err = fmt.Errorf("index %s: %d steps from a bucket's head do not end at its tail", ix.Name, b.n)
			}
		})
		if err != nil {
			return err
		}
		if n != len(st.rows) {
			return fmt.Errorf("index %s has %d entries, heap has %d", ix.Name, n, len(st.rows))
		}
	}
	for p := st.post.free; p != nil; p = p.next {
		if listed[p] || p.r != nil {
			return fmt.Errorf("a posting given back is still reachable from a bucket, or still names a row")
		}
	}
	return nil
}

// rows returns the bucket's rows in order (test helper: probes walk the
// postings through a cursor instead).
func (b bucket) rows() []*Row {
	var out []*Row
	p := b.tail
	for range b.n {
		p = p.next
		out = append(out, p.r)
	}
	return out
}

// Property: under any random sequence of inserts, updates and deletes, the
// heap, primary-key map and secondary indexes stay mutually consistent.
func TestTableIndexConsistencyProperty(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		if len(opsRaw) > 200 {
			opsRaw = opsRaw[:200]
		}
		rng := rand.New(rand.NewSource(seed))
		tbl, err := NewTable("kv",
			[]ColumnDef{
				{Name: "id", Type: KindInt, PrimaryKey: true, NotNull: true},
				{Name: "grp", Type: KindInt},
				{Name: "val", Type: KindString},
			},
			nil,
			[]IndexDef{{Name: "idx_grp", Columns: []string{"grp"}}})
		if err != nil {
			return false
		}
		for _, op := range opsRaw {
			switch op % 3 {
			case 0: // insert
				id := int64(rng.Intn(50))
				_, _ = tbl.Insert([]Value{NewInt(id), NewInt(int64(rng.Intn(5))), NewString("v")})
			case 1: // update random row
				if tbl.NumRows() == 0 {
					continue
				}
				r := tbl.store.rows[rng.Intn(tbl.NumRows())]
				nv := append([]Value(nil), r.vals...)
				nv[1] = NewInt(int64(rng.Intn(5)))
				if op%2 == 0 {
					nv[0] = NewInt(int64(rng.Intn(50))) // may collide; must fail cleanly
				}
				_, _ = tbl.put(r, nv, 0, nil)
			case 2: // delete random row
				if tbl.NumRows() == 0 {
					continue
				}
				_ = tbl.store.bury(tbl.store.rows[rng.Intn(tbl.NumRows())], nil)
			}
			if err := checkConsistent(tbl); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCoerceKinds(t *testing.T) {
	intCol := ColumnDef{Name: "i", Type: KindInt}
	if v, err := coerce(NewString("42"), intCol); err != nil || v.Int() != 42 {
		t.Fatalf("string→int: %v %v", v, err)
	}
	if _, err := coerce(NewString("xyz"), intCol); err == nil {
		t.Fatal("garbage string→int accepted")
	}
	if v, err := coerce(NewFloat(3.9), intCol); err != nil || v.Int() != 3 {
		t.Fatalf("float→int: %v %v", v, err)
	}
	boolCol := ColumnDef{Name: "b", Type: KindBool}
	if v, _ := coerce(NewInt(2), boolCol); !v.Bool() {
		t.Fatal("2→bool should be true")
	}
	timeCol := ColumnDef{Name: "t", Type: KindTime}
	if v, err := coerce(NewInt(123), timeCol); err != nil || v.Kind() != KindTime || v.Micros() != 123 {
		t.Fatalf("int→time: %v %v", v, err)
	}
	if _, err := coerce(NewString("notatime"), timeCol); err == nil {
		t.Fatal("string→time accepted")
	}
}
