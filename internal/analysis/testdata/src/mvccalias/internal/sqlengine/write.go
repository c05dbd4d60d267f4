package sqlengine

import "sort"

// Table is declared outside the store file: its own fields are not storage.
type Table struct {
	name  string
	store rowStore
	cur   rowCursor
}

func scribble(t *Table, r *Row, extra *Row) {
	r.vals[0] = Value{}                                              // want `write to row storage field vals outside store\.go`
	r.begin++                                                        // want `write to row storage field begin`
	t.store.rows[0] = nil                                            // want `write to row storage field rows`
	t.store.rows = nil                                               // want `write to row storage field rows`
	_ = append(t.store.rows[:0], extra)                              // want `append to row storage field rows`
	copy(r.vals, extra.vals)                                         // want `copy into row storage field vals`
	delete(t.store.idx, 1)                                           // want `delete of row storage field idx`
	clear(t.store.rows)                                              // want `clear of row storage field rows`
	t.cur.i = 0                                                      // want `write to row storage field i`
	r.Values()[0] = Value{}                                          // want `write to the result of Values`
	sort.Slice(t.store.live(), func(i, j int) bool { return i < j }) // want `in-place sort of the result of live`
}

// constructionAndReadsAreFine: a composite literal builds a store type
// without touching existing storage, methods are the sanctioned way in, and
// reads — copies included — are free.
func constructionAndReadsAreFine(t *Table, r *Row) int {
	t.name = "t"
	t.store = rowStore{idx: map[int64]*Row{}}
	fresh := &Row{vals: []Value{{I: 1}}}
	t.store.insert(fresh.Values())
	t.cur.rewind()
	cp := append([]*Row(nil), t.store.live()...)
	sort.Slice(cp, func(i, j int) bool { return i < j })
	cp[0] = nil
	img := append([]Value(nil), r.vals...)
	img[0] = Value{}
	return len(r.vals) + int(r.begin)
}

//cloudrepl:allow-mvccalias fixture exercising the annotation escape hatch
func allowed(r *Row) {
	r.begin = 0
}
