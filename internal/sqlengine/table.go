package sqlengine

import (
	"fmt"
	"strings"
)

// ErrDuplicateKey is wrapped by primary-key and unique-index violations.
var ErrDuplicateKey = fmt.Errorf("duplicate key")

// Table is a catalog entry — columns, key definitions, statistics — over one
// row store (store.go), which holds the rows.
type Table struct {
	Name    string
	Columns []ColumnDef
	colPos  map[string]int
	pkCols  []int
	indexes []*Index // secondary indexes
	store   rowStore
	// stats is the planner's statistics profile (stats.go): exact live row
	// count from the store, lazily analyzed per-column NDV and bounds.
	// statsGen counts the times ANALYZE rebuilt it and retires the cost-based
	// plans that read it.
	stats    tableStats
	statsGen uint64
}

// NewTable builds a table from column definitions, a primary-key column
// list (which may be empty — then every column forms the identity but no
// uniqueness is enforced) and secondary index definitions.
func NewTable(name string, cols []ColumnDef, pkCols []string, indexes []IndexDef) (*Table, error) {
	t := &Table{Name: name, Columns: cols, colPos: make(map[string]int)}
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
	var keyed []*Index
	if len(t.pkCols) > 0 {
		keyed = append(keyed, &Index{Name: "PRIMARY", Cols: t.pkCols, Unique: true})
	}
	pk := len(keyed)
	for _, def := range indexes {
		var at []int
		for _, cn := range def.Columns {
			pos, ok := t.colPos[strings.ToLower(cn)]
			if !ok {
				return nil, fmt.Errorf("sqlengine: index column %q not in table %s", cn, name)
			}
			at = append(at, pos)
		}
		keyed = append(keyed, &Index{Name: def.Name, Cols: at, Unique: def.Unique})
	}
	t.indexes = keyed[pk:]
	t.store.init(t, keyed)
	return t, nil
}

// ColPos returns the position of a column by (case-insensitive) name.
func (t *Table) ColPos(name string) (int, bool) {
	pos, ok := t.colPos[strings.ToLower(name)]
	return pos, ok
}

// NumRows returns the current row count.
func (t *Table) NumRows() int { return t.store.live() }

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

// put stores img — coerced in place to the column kinds, and the table's from
// here on — as a new row visible from begin when r is nil, else as r's next
// image, on behalf of txn (store.go). A constraint violation has no side
// effects; a superseded image is untouched (snapshot readers may hold it).
func (t *Table) put(r *Row, img []Value, begin uint64, txn *Session) (c rowChange, err error) {
	if len(img) != len(t.Columns) {
		return c, fmt.Errorf("sqlengine: table %s has %d columns, got %d values", t.Name, len(t.Columns), len(img))
	}
	if err = t.coerceRow(img); err != nil {
		return c, err
	}
	if r == nil {
		c, err = t.store.insert(img, begin, txn)
	} else {
		c, err = t.store.replace(r, img, txn)
	}
	if err == nil {
		t.stats.observeInsert(img)
	}
	return c, err
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
			if _, err := fmt.Sscanf(strings.TrimSpace(v.s), "%d", &n); err != nil {
				return v, fmt.Errorf("cannot convert %q to integer", v.s)
			}
			return NewInt(n), nil
		}
	case KindFloat:
		if v.numeric() {
			return NewFloat(v.Float()), nil
		}
		var f float64
		if _, err := fmt.Sscanf(strings.TrimSpace(v.s), "%g", &f); err != nil {
			return v, fmt.Errorf("cannot convert %q to double", v.s)
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
