// Package sqlengine is the mvccalias fixture's stand-in for the engine: this
// file plays store.go, the one file allowed to write row storage, and
// write.go plays the rest of the package.
package sqlengine

// Value is one column value.
type Value struct{ I int64 }

// Row is a stored tuple.
type Row struct {
	vals  []Value
	begin uint64
}

// Values returns the live image.
func (r *Row) Values() []Value { return r.vals }

// Index is a catalog-visible store type: its exported fields are storage too.
type Index struct {
	Name string
	Cols []int
}

type rowCursor struct{ i int }

func (c *rowCursor) rewind() { c.i = 0 }

type rowStore struct {
	rows []*Row
	idx  map[int64]*Row
}

// insert is the store writing its own fields: never reported.
func (st *rowStore) insert(img []Value) *Row {
	r := &Row{vals: img}
	r.begin = 1
	st.rows = append(st.rows, r)
	st.idx[img[0].I] = r
	return r
}

func (st *rowStore) live() []*Row { return st.rows }
