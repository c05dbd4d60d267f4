package sqlengine

import "strings"

// Row-image rendering for row-based replication (FormatRow): each affected
// row becomes one deterministic statement with every value a literal, so a
// replica applies exactly the master's bytes. Rows are identified by
// primary key when the table has one, else by the full before-image.

// renderRowInsert renders one inserted row as a literal INSERT.
func renderRowInsert(tbl *Table, vals []Value) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(quoteIdent(tbl.Name))
	b.WriteString(" (")
	for i, c := range tbl.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(c.Name))
	}
	b.WriteString(") VALUES (")
	for i, v := range vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.SQL())
	}
	b.WriteString(")")
	return b.String()
}

// rowPredicate renders the identifying WHERE clause for a before-image.
func rowPredicate(tbl *Table, before []Value) string {
	var b strings.Builder
	positions := tbl.pkCols
	if len(positions) == 0 {
		positions = make([]int, len(tbl.Columns))
		for i := range positions {
			positions[i] = i
		}
	}
	for i, pos := range positions {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(quoteIdent(tbl.Columns[pos].Name))
		if before[pos].IsNull() {
			b.WriteString(" IS NULL")
		} else {
			b.WriteString(" = ")
			b.WriteString(before[pos].SQL())
		}
	}
	return b.String()
}

// renderRowUpdate renders one updated row as a literal UPDATE keyed on the
// before-image.
func renderRowUpdate(tbl *Table, before, after []Value) string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(quoteIdent(tbl.Name))
	b.WriteString(" SET ")
	first := true
	for i, c := range tbl.Columns {
		if Compare(before[i], after[i]) == 0 && before[i].Kind() == after[i].Kind() {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(quoteIdent(c.Name))
		b.WriteString(" = ")
		b.WriteString(after[i].SQL())
	}
	if first {
		// No column changed value; still emit a no-op-safe full image.
		for i, c := range tbl.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(quoteIdent(c.Name))
			b.WriteString(" = ")
			b.WriteString(after[i].SQL())
		}
	}
	b.WriteString(" WHERE ")
	b.WriteString(rowPredicate(tbl, before))
	return b.String()
}

// renderRowDelete renders one deleted row as a literal DELETE keyed on the
// before-image.
func renderRowDelete(tbl *Table, before []Value) string {
	return "DELETE FROM " + quoteIdent(tbl.Name) + " WHERE " + rowPredicate(tbl, before)
}
