package sqlengine

// keyMap is the package's one hash table keyed by hashKey: index buckets, hash
// join heads, GROUP BY and DISTINCT filing and ANALYZE's distinct sets. One
// rule picks the map, per key, when the key arrives: kind 'n' — an int, bool,
// timestamp or integral float, the values that share a hashKey — goes to ints
// under its int64 alone, which hashes and compares as one word; every other
// key (NULL, string, non-integral float, composite) goes to rest whole. A key
// is in exactly one of the two, so equality across kinds is hashKey's, as
// before. The zero keyMap is empty and ready; either map appears on first put.
type keyMap[V any] struct {
	ints map[int64]V
	rest map[hashKey]V
}

// keyCount is how many keys a keyMap holds in each of its maps.
type keyCount struct{ ints, rest int }

func (m *keyMap[V]) count() keyCount { return keyCount{len(m.ints), len(m.rest)} }

// sized returns an empty keyMap with room for n keys, each map made once.
func sized[V any](n keyCount) keyMap[V] {
	var m keyMap[V]
	if n.ints > 0 {
		m.ints = make(map[int64]V, n.ints)
	}
	if n.rest > 0 {
		m.rest = make(map[hashKey]V, n.rest)
	}
	return m
}

func (m *keyMap[V]) get(k hashKey) (V, bool) {
	if k.kind == 'n' {
		v, ok := m.ints[k.n]
		return v, ok
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
		if m.ints == nil {
			m.ints = make(map[int64]V)
		}
		m.ints[k.n] = v
		return
	}
	if m.rest == nil {
		m.rest = make(map[hashKey]V)
	}
	m.rest[k] = v
}

func (m *keyMap[V]) del(k hashKey) {
	if k.kind == 'n' {
		delete(m.ints, k.n)
		return
	}
	delete(m.rest, k)
}

func (m *keyMap[V]) len() int { return len(m.ints) + len(m.rest) }

// clear empties the table and keeps its storage.
func (m *keyMap[V]) clear() {
	clear(m.ints)
	clear(m.rest)
}
