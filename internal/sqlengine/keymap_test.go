package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// each calls f for every entry, in no order (test helper: the engine ranges
// over a key table only to clone it).
func (m *keyMap[V]) each(f func(hashKey, V)) {
	for _, s := range m.ints.slots {
		if s.full {
			f(hashKey{kind: 'n', n: s.k}, s.v)
		}
	}
	for k, v := range m.rest {
		f(k, v)
	}
}

// compositeKey renders vals the way a multi-column index or a GROUP BY tuple
// does.
func compositeKey(vals ...Value) hashKey {
	var b []byte
	for _, v := range vals {
		b = v.hashKey().appendTo(b)
	}
	return hashKey{kind: 'c', s: string(b)}
}

// keyMapKeys is the pool the reference test draws from: values that share a
// key across kinds (1, 1.0, TRUE, a timestamp of one microsecond), values that
// look alike and must not ("1", "3", 3.5 beside 3), NULL, the edges of int64,
// and composite keys — two that render alike from different kinds, one that
// differs only in where its parts are cut.
var keyMapKeys = []hashKey{
	NewInt(1).hashKey(), NewFloat(1.0).hashKey(), NewBool(true).hashKey(), NewTime(1).hashKey(),
	NewInt(3).hashKey(), NewFloat(3.5).hashKey(), NewString("3").hashKey(), NewString("1").hashKey(),
	Null.hashKey(), NewString("").hashKey(), NewInt(0).hashKey(), NewFloat(math.Copysign(0, -1)).hashKey(),
	NewInt(math.MaxInt64).hashKey(), NewInt(math.MinInt64).hashKey(), NewFloat(math.Inf(1)).hashKey(),
	NewFloat(-2.25).hashKey(), NewInt('n').hashKey(), NewTime(1700000000000000).hashKey(),
	compositeKey(NewInt(1), NewString("a")), compositeKey(NewFloat(1.0), NewString("a")),
	compositeKey(NewString("1"), NewString("a")), compositeKey(NewString("1a"), NewString("")),
	compositeKey(Null, Null), compositeKey(NewInt(1), NewInt(1)),
}

// sameAsReference reports how m differs from ref: its length, an entry ref
// does not hold, or a key of ref that get does not find (a flat key stranded
// behind an empty slot).
func sameAsReference(m *keyMap[int], ref map[hashKey]int) error {
	if m.len() != len(ref) {
		return fmt.Errorf("len = %d, the plain map holds %d", m.len(), len(ref))
	}
	var err error
	seen := 0
	m.each(func(k hashKey, v int) {
		seen++
		if want, ok := ref[k]; !ok || want != v {
			err = fmt.Errorf("%+v → %d, the plain map says %d, %v", k, v, want, ok)
		}
	})
	if err == nil && seen != len(ref) {
		err = fmt.Errorf("%d entries, the plain map holds %d", seen, len(ref))
	}
	for k, want := range ref {
		if got, ok := m.get(k); err == nil && (!ok || got != want) {
			err = fmt.Errorf("get(%+v) = %d, %v; the plain map says %d", k, got, ok, want)
		}
	}
	return err
}

// checkKeyMapAgainstReference drives a keyMap[int] and a plain map[hashKey]int
// — the table every keyMap replaced — with the op stream script encodes, two
// bytes an op: what to do and to which key (a pool key, or the second byte as
// an integer of its own). Every answer and the length must agree after every
// step, and so must a clone taken then — which a write to it leaves the source
// without — and the contents at the end.
func checkKeyMapAgainstReference(script []byte) error {
	var m keyMap[int]
	ref := map[hashKey]int{}
	for i := 0; i+1 < len(script); i += 2 {
		op, pick := script[i], script[i+1]
		k := keyMapKeys[int(pick)%len(keyMapKeys)]
		if op&0x80 != 0 {
			k = NewInt(int64(pick)).hashKey()
		}
		step := fmt.Sprintf("step %d (op %d, key %+v)", i/2, op&7, k)
		switch op & 7 {
		case 0, 1, 2:
			m.put(k, i)
			ref[k] = i
		case 3, 4:
			m.del(k)
			delete(ref, k)
		case 5:
			if op&0x40 != 0 { // rarely: most streams should grow
				m.clear()
				clear(ref)
			}
		}
		got, ok := m.get(k)
		want, wantOK := ref[k]
		if got != want || ok != wantOK {
			return fmt.Errorf("%s: get = %d, %v; the plain map says %d, %v", step, got, ok, want, wantOK)
		}
		if k.kind == 'c' {
			if got, ok := m.composite([]byte(k.s)); got != want || ok != wantOK {
				return fmt.Errorf("%s: composite = %d, %v; the plain map says %d, %v", step, got, ok, want, wantOK)
			}
		}
		if m.len() != len(ref) {
			return fmt.Errorf("%s: len = %d, the plain map holds %d", step, m.len(), len(ref))
		}
		c := cloneKeys(&m, func(v int) int { return v })
		if err := sameAsReference(&c, ref); err != nil {
			return fmt.Errorf("%s: the clone: %v", step, err)
		}
		c.put(k, -1)
		c.del(keyMapKeys[0])
		if err := sameAsReference(&m, ref); err != nil {
			return fmt.Errorf("%s: after writes to the clone, the source: %v", step, err)
		}
	}
	if err := sameAsReference(&m, ref); err != nil {
		return fmt.Errorf("at the end: %v", err)
	}
	return nil
}

func TestKeyMapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ {
		script := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(script)
		if err := checkKeyMapAgainstReference(script); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestKeyMapSendsIntegralKeysToInts pins the one rule that picks the side.
func TestKeyMapSendsIntegralKeysToInts(t *testing.T) {
	var m keyMap[int]
	for i, v := range []Value{NewInt(7), NewFloat(7.0), NewBool(true), NewTime(9)} {
		m.put(v.hashKey(), i)
	}
	if m.ints.n != 3 || len(m.rest) != 0 {
		t.Errorf("7, 7.0, TRUE and a timestamp: %d integral keys and %d other, want 3 and none", m.ints.n, len(m.rest))
	}
	for i, v := range []Value{Null, NewString("7"), NewFloat(7.5), NewFloat(math.NaN())} {
		m.put(v.hashKey(), i)
	}
	m.put(compositeKey(NewInt(7), NewInt(7)), 0)
	if m.ints.n != 3 || len(m.rest) != 5 {
		t.Errorf("after NULL, a string, two non-integral floats and a composite: %d and %d, want 3 and 5", m.ints.n, len(m.rest))
	}
}

// FuzzKeyMap is the reference check over op streams the fuzzer writes; the
// seeds (and testdata/fuzz/FuzzKeyMap) run under `make fuzz-seed`. In an
// eight-slot table the integers 8, 16 and 21 hash to the last slot and 5 to
// the first, so the corpus's delete_across_wrap_* seeds wrap a probe around
// the array's end and then delete behind it: the shift moves keys back across
// the wrap, and in the second seed leaves one at its home.
func FuzzKeyMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 3, 1, 5, 0, 0, 8})
	f.Add([]byte{0, 18, 0, 19, 3, 18, 0, 20, 0, 21, 0x45, 0, 0, 19})
	f.Add([]byte{0x80, 1, 0, 0, 0x83, 1, 0, 7, 0, 8, 0x80, 3, 0, 4, 3, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := checkKeyMapAgainstReference(script); err != nil {
			t.Fatal(err)
		}
	})
}
