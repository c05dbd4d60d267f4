package sqlengine

import (
	"fmt"
	"strings"
)

// ErrDuplicateKey is wrapped by primary-key and unique-index violations.
var ErrDuplicateKey = fmt.Errorf("duplicate key")

// Row is a stored tuple. Rows have stable identity so index buckets can
// reference them across updates. MVCC state rides on the row: begin and end
// are the commit versions bounding the current image's visibility (end 0 =
// still live), prev chains superseded committed images newest-first, and
// txn marks an image provisionally written by an open transaction (see
// mvcc.go for the visibility rules).
type Row struct {
	vals  []Value
	begin uint64
	end   uint64
	prev  *rowVersion
	txn   *Session
}

// Values returns the row's values aligned with the table's columns. The
// returned slice is the live storage; callers must not modify it.
func (r *Row) Values() []Value { return r.vals }

// Index is a secondary index over one or more columns.
type Index struct {
	Name    string
	Cols    []int // column positions
	Unique  bool
	buckets map[string][]*Row
}

// appendRowKey appends the map key of vals' columns cols to b. Keys are built
// in the caller's stack buffer: probing a map through string(bytes) allocates
// nothing, so only storing a key costs a string.
func appendRowKey(b []byte, vals []Value, cols []int) []byte {
	for i, c := range cols {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = vals[c].appendKey(b)
	}
	return b
}

func (ix *Index) add(r *Row) error {
	var kb [64]byte
	k := appendRowKey(kb[:0], r.vals, ix.Cols)
	bucket := ix.buckets[string(k)]
	if ix.Unique && len(bucket) > 0 {
		return fmt.Errorf("%w: index %s", ErrDuplicateKey, ix.Name)
	}
	ix.buckets[string(k)] = append(bucket, r)
	return nil
}

func (ix *Index) remove(r *Row) {
	var kb [64]byte
	k := appendRowKey(kb[:0], r.vals, ix.Cols)
	bucket := ix.buckets[string(k)]
	for i, x := range bucket {
		if x == r {
			if len(bucket) == 1 {
				delete(ix.buckets, string(k))
			} else {
				ix.buckets[string(k)] = append(bucket[:i], bucket[i+1:]...)
			}
			return
		}
	}
}

// Table is an in-memory heap of rows with a primary key and optional
// secondary indexes.
type Table struct {
	Name    string
	Columns []ColumnDef
	colPos  map[string]int
	pkCols  []int
	rows    []*Row
	pk      map[string]*Row
	indexes []*Index
	// graveyard holds deleted rows until chain GC proves no snapshot
	// reader can still see them; they are out of the heap, primary key
	// and indexes, found only by version-resolving scans.
	graveyard []*Row
	rowBytes  int // rough per-row footprint, informational
	// stats is the planner's statistics profile (stats.go): exact live row
	// count via len(rows), lazily analyzed per-column NDV and bounds.
	stats tableStats
}

// NewTable builds a table from column definitions, a primary-key column
// list (which may be empty — then every column forms the identity but no
// uniqueness is enforced) and secondary index definitions.
func NewTable(name string, cols []ColumnDef, pkCols []string, indexes []IndexDef) (*Table, error) {
	t := &Table{Name: name, Columns: cols, colPos: make(map[string]int), pk: make(map[string]*Row)}
	t.stats.analyzedRows = -1
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colPos[lc]; dup {
			return nil, fmt.Errorf("sqlengine: duplicate column %q in table %s", c.Name, name)
		}
		t.colPos[lc] = i
		if c.PrimaryKey {
			t.pkCols = append(t.pkCols, i)
		}
	}
	for _, pc := range pkCols {
		pos, ok := t.colPos[strings.ToLower(pc)]
		if !ok {
			return nil, fmt.Errorf("sqlengine: primary key column %q not in table %s", pc, name)
		}
		t.pkCols = append(t.pkCols, pos)
	}
	for _, def := range indexes {
		ix := &Index{Name: def.Name, Unique: def.Unique, buckets: make(map[string][]*Row)}
		for _, cn := range def.Columns {
			pos, ok := t.colPos[strings.ToLower(cn)]
			if !ok {
				return nil, fmt.Errorf("sqlengine: index column %q not in table %s", cn, name)
			}
			ix.Cols = append(ix.Cols, pos)
		}
		t.indexes = append(t.indexes, ix)
	}
	return t, nil
}

// ColPos returns the position of a column by (case-insensitive) name.
func (t *Table) ColPos(name string) (int, bool) {
	pos, ok := t.colPos[strings.ToLower(name)]
	return pos, ok
}

// NumRows returns the current row count.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the physical row list. Callers iterate it read-only.
func (t *Table) Rows() []*Row { return t.rows }

// HasPK reports whether the table enforces a primary key.
func (t *Table) HasPK() bool { return len(t.pkCols) > 0 }

func (t *Table) pkKey(vals []Value) string {
	var kb [64]byte
	return string(appendRowKey(kb[:0], vals, t.pkCols))
}

// coerceRow converts vals in place to the column kinds, enforcing NOT NULL.
func (t *Table) coerceRow(vals []Value) error {
	for i, v := range vals {
		cv, err := coerce(v, t.Columns[i])
		if err != nil {
			return fmt.Errorf("sqlengine: column %s.%s: %w", t.Name, t.Columns[i].Name, err)
		}
		vals[i] = cv
	}
	return nil
}

// Insert adds a row, enforcing NOT NULL, primary-key and unique-index
// constraints and coercing values to column kinds. The table takes ownership
// of vals: it becomes the row's stored image.
func (t *Table) Insert(vals []Value) (*Row, error) {
	if len(vals) != len(t.Columns) {
		return nil, fmt.Errorf("sqlengine: table %s has %d columns, got %d values", t.Name, len(t.Columns), len(vals))
	}
	if err := t.coerceRow(vals); err != nil {
		return nil, err
	}
	r := &Row{vals: vals}
	if t.HasPK() {
		var kb [64]byte
		k := appendRowKey(kb[:0], vals, t.pkCols)
		if _, exists := t.pk[string(k)]; exists {
			return nil, fmt.Errorf("%w: primary key of table %s", ErrDuplicateKey, t.Name)
		}
		t.pk[string(k)] = r
	}
	for _, ix := range t.indexes {
		if err := ix.add(r); err != nil {
			// Roll back previously added index entries and the PK entry.
			for _, prev := range t.indexes {
				if prev == ix {
					break
				}
				prev.remove(r)
			}
			if t.HasPK() {
				delete(t.pk, t.pkKey(vals))
			}
			return nil, fmt.Errorf("sqlengine: table %s: %w", t.Name, err)
		}
	}
	t.rows = append(t.rows, r)
	t.stats.observeInsert(vals)
	return r, nil
}

// Delete removes a row by identity.
func (t *Table) Delete(r *Row) {
	if t.HasPK() {
		delete(t.pk, t.pkKey(r.vals))
	}
	for _, ix := range t.indexes {
		ix.remove(r)
	}
	for i, x := range t.rows {
		if x == r {
			t.rows = append(t.rows[:i], t.rows[i+1:]...)
			return
		}
	}
}

// Update replaces a row's image, maintaining all indexes. It fails without
// side effects on constraint violations. The table takes ownership of
// newVals, coerced in place to the column kinds; the image it supersedes is
// left untouched (snapshot readers may still hold it).
func (t *Table) Update(r *Row, newVals []Value) error {
	if err := t.coerceRow(newVals); err != nil {
		return err
	}
	return t.replace(r, newVals)
}

// replace is Update for an image that is already coerced — a fresh one, or a
// superseded one being put back by an undo.
func (t *Table) replace(r *Row, stored []Value) error {
	if t.HasPK() {
		oldKey, newKey := t.pkKey(r.vals), t.pkKey(stored)
		if oldKey != newKey {
			if _, exists := t.pk[newKey]; exists {
				return fmt.Errorf("%w: primary key of table %s", ErrDuplicateKey, t.Name)
			}
			delete(t.pk, oldKey)
			t.pk[newKey] = r
		}
	}
	for _, ix := range t.indexes {
		ix.remove(r)
	}
	old := r.vals
	r.vals = stored
	t.stats.observeInsert(stored)
	for _, ix := range t.indexes {
		if err := ix.add(r); err != nil {
			// Restore: remove entries added so far, put old values back.
			for _, prev := range t.indexes {
				if prev == ix {
					break
				}
				prev.remove(r)
			}
			if t.HasPK() {
				delete(t.pk, t.pkKey(stored))
				r.vals = old
				t.pk[t.pkKey(old)] = r
				for _, again := range t.indexes {
					_ = again.add(r)
				}
				return fmt.Errorf("sqlengine: table %s: %w", t.Name, err)
			}
			r.vals = old
			for _, again := range t.indexes {
				_ = again.add(r)
			}
			return fmt.Errorf("sqlengine: table %s: %w", t.Name, err)
		}
	}
	return nil
}

// LookupPK returns the row with the given primary-key values.
func (t *Table) LookupPK(vals []Value) (*Row, bool) {
	if !t.HasPK() {
		return nil, false
	}
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(v.key())
	}
	r, ok := t.pk[b.String()]
	return r, ok
}

// lookupEq returns rows matching col = v via the best available index, and
// whether an index was usable. A primary-key hit is returned as a one-row
// bucket backed by the caller's pk, so a probe allocates nothing.
func (t *Table) lookupEq(col int, v Value, pk *[1]*Row) ([]*Row, bool) {
	// Keys are built in a stack buffer: map lookups through string(bytes)
	// compile to zero-allocation probes, and point lookups dominate the
	// read workload.
	var kb [32]byte
	// Single-column primary key.
	if len(t.pkCols) == 1 && t.pkCols[0] == col {
		if r, ok := t.pk[string(v.appendKey(kb[:0]))]; ok {
			pk[0] = r
			return pk[:], true
		}
		return nil, true
	}
	for _, ix := range t.indexes {
		if len(ix.Cols) == 1 && ix.Cols[0] == col {
			return ix.buckets[string(v.appendKey(kb[:0]))], true
		}
	}
	return nil, false
}

// Truncate removes all rows. TRUNCATE is DDL, not a versioned write: the
// graveyard and version chains go with the heap, so snapshot readers lose
// pre-truncate images (documented MVCC scope, DESIGN.md §12).
func (t *Table) Truncate() {
	t.rows = nil
	t.graveyard = nil
	t.pk = make(map[string]*Row)
	for _, ix := range t.indexes {
		ix.buckets = make(map[string][]*Row)
	}
}

// coerce converts v to the column's kind, mirroring MySQL's permissive
// implicit conversions.
func coerce(v Value, col ColumnDef) (Value, error) {
	if v.IsNull() {
		if col.NotNull {
			return v, fmt.Errorf("NULL into NOT NULL column")
		}
		return v, nil
	}
	switch col.Type {
	case KindInt:
		switch v.Kind() {
		case KindInt, KindBool, KindTime:
			return NewInt(v.Int()), nil
		case KindFloat:
			return NewInt(int64(v.Float())), nil
		case KindString:
			var n int64
			if _, err := fmt.Sscanf(strings.TrimSpace(v.Str()), "%d", &n); err != nil {
				return v, fmt.Errorf("cannot convert %q to integer", v.Str())
			}
			return NewInt(n), nil
		}
	case KindFloat:
		if v.numeric() {
			return NewFloat(v.Float()), nil
		}
		var f float64
		if _, err := fmt.Sscanf(strings.TrimSpace(v.Str()), "%g", &f); err != nil {
			return v, fmt.Errorf("cannot convert %q to double", v.Str())
		}
		return NewFloat(f), nil
	case KindString:
		s := v.String()
		if col.TypeArg > 0 && len(s) > col.TypeArg {
			s = s[:col.TypeArg] // MySQL truncates with a warning
		}
		return NewString(s), nil
	case KindBool:
		return NewBool(v.Bool()), nil
	case KindTime:
		switch v.Kind() {
		case KindTime, KindInt:
			return NewTime(v.Int()), nil
		case KindFloat:
			return NewTime(int64(v.Float())), nil
		default:
			return v, fmt.Errorf("cannot convert %s to timestamp", v.Kind())
		}
	}
	return v, nil
}
