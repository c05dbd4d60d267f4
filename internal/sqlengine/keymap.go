package sqlengine

import "math/bits"

// keyMap is the package's one hash table keyed by hashKey: index buckets, hash
// join heads, GROUP BY and DISTINCT filing and ANALYZE's distinct sets. One
// rule picks the side, per key, when the key arrives: kind 'n' — an int, bool,
// timestamp or integral float, the values that share a hashKey — goes to ints
// under its int64 alone, which hashes and compares as one word; every other
// key (NULL, string, non-integral float, composite) goes to rest whole. A key
// is in exactly one of the two, so equality across kinds is hashKey's, as
// before. The zero keyMap is empty and ready; either side appears on first put.
type keyMap[V any] struct {
	ints flatMap[V]
	rest map[hashKey]V
}

func (m *keyMap[V]) get(k hashKey) (V, bool) {
	if k.kind == 'n' {
		return m.ints.get(k.n)
	}
	v, ok := m.rest[k]
	return v, ok
}

// composite is get of the composite key b renders to, without making a string
// of b: the conversion sits in the index expression, where it is free.
func (m *keyMap[V]) composite(b []byte) (V, bool) {
	v, ok := m.rest[hashKey{kind: 'c', s: string(b)}]
	return v, ok
}

func (m *keyMap[V]) put(k hashKey, v V) {
	if k.kind == 'n' {
		m.ints.put(k.n, v)
		return
	}
	if m.rest == nil {
		m.rest = make(map[hashKey]V)
	}
	m.rest[k] = v
}

func (m *keyMap[V]) del(k hashKey) {
	if k.kind == 'n' {
		m.ints.del(k.n)
		return
	}
	delete(m.rest, k)
}

func (m *keyMap[V]) len() int { return m.ints.n + len(m.rest) }

// clear empties the table and keeps its storage.
func (m *keyMap[V]) clear() {
	m.ints.clear()
	clear(m.rest)
}

// cloneKeys returns a keyMap holding m's keys, each under f of its value. The
// integral side is copied slot for slot, nothing hashed; the rest entry by
// entry, so f must not depend on the order it is called in.
func cloneKeys[S, V any](m *keyMap[S], f func(S) V) keyMap[V] {
	src := &m.ints
	out := keyMap[V]{ints: flatMap[V]{slots: make([]flatSlot[V], len(src.slots)), n: src.n, shift: src.shift}}
	for i, s := range src.slots {
		if s.full {
			out.ints.slots[i] = flatSlot[V]{k: s.k, v: f(s.v), full: true}
		}
	}
	if len(m.rest) > 0 {
		out.rest = make(map[hashKey]V, len(m.rest))
		for k, v := range m.rest {
			out.rest[k] = f(v)
		}
	}
	return out
}

// flatMap is keyMap's integral side: open addressing over a power-of-two slot
// array at most three quarters full, each key probed linearly from its
// Fibonacci hash. A delete shifts the keys behind the hole back instead of
// leaving a tombstone, so every probe ends at the first empty slot and an
// empty slot holds the zero value.
type flatMap[V any] struct {
	slots []flatSlot[V]
	n     int  // keys held
	shift uint // 64 − log2(len(slots)): home keeps a hash's top bits
}

type flatSlot[V any] struct {
	k    int64
	v    V
	full bool
}

const flatMin = 8 // slots of a flatMap's first array

func (m *flatMap[V]) home(k int64) int { return int(uint64(k) * 0x9e3779b97f4a7c15 >> m.shift) }

// find returns k's slot and true, or the empty slot its probe ends at and
// false. The array must have one.
func (m *flatMap[V]) find(k int64) (int, bool) {
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		if s := &m.slots[i]; !s.full || s.k == k {
			return i, s.full
		}
	}
}

func (m *flatMap[V]) get(k int64) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	i, ok := m.find(k)
	return m.slots[i].v, ok
}

func (m *flatMap[V]) put(k int64, v V) {
	i, ok := 0, false
	if len(m.slots) > 0 {
		i, ok = m.find(k)
	}
	if !ok && 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
		i, _ = m.find(k)
	}
	s := &m.slots[i]
	if !ok {
		s.k, s.full = k, true
		m.n++
	}
	s.v = v
}

// grow doubles the slot array and re-enters every key.
func (m *flatMap[V]) grow() {
	old := m.slots
	m.slots = make([]flatSlot[V], max(2*len(old), flatMin))
	m.shift = uint(64 - bits.TrailingZeros(uint(len(m.slots))))
	for _, s := range old {
		if s.full {
			i, _ := m.find(s.k)
			m.slots[i] = s
		}
	}
}

func (m *flatMap[V]) del(k int64) {
	if m.n == 0 {
		return
	}
	i, ok := m.find(k)
	if !ok {
		return
	}
	// Walk the run behind the hole at i: a key whose home is not in (i, j]
	// may move back into it, leaving its own slot the hole.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].full; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].k))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = flatSlot[V]{}
	m.n--
}

func (m *flatMap[V]) clear() {
	if m.n > 0 {
		clear(m.slots)
		m.n = 0
	}
}
