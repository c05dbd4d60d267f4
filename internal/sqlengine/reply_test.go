package sqlengine

import (
	"fmt"
	"testing"
	"unsafe"
)

// within reports whether p points into s's storage, its spare capacity
// included.
func within[T any](p *T, s []T) bool {
	s = s[:cap(s)]
	for i := range s {
		if &s[i] == p {
			return true
		}
	}
	return false
}

// TestReplyReusesItsRows: a Reply owns the rows it answers in. Its first read
// keeps nothing, so a Reply read into once — Run's, a proxy's per statement —
// costs one object, itself, with no field more than one pointer: its values
// and row headers are carved from chunks the plan keeps. From the second read
// on, the Reply keeps its row storage: a read that fits allocates nothing and
// overwrites the last one's rows there, and a larger result grows the storage,
// which the Reply keeps for the reads after it. That holds for plain, DISTINCT
// and aggregated plans alike. The rows a Merge builds are never any Reply's:
// they outlive every later read and merge.
func TestReplyReusesItsRows(t *testing.T) {
	if got, want := unsafe.Sizeof(Reply{}), unsafe.Sizeof(Result{})+unsafe.Sizeof(ResultSet{})+unsafe.Sizeof(&rowSpace{}); got != want {
		t.Fatalf("a Reply is %d bytes, want %d: every statement's reply pays for its fields", got, want)
	}
	s := newTestDB(t)
	for _, tc := range []struct {
		sql          string
		small, big   int64 // arguments: big returns more rows than small
		nSmall, nBig int
	}{
		{"SELECT id, name FROM users WHERE karma >= ? ORDER BY id", 70, 10, 4, 10},
		{"SELECT DISTINCT creator_id FROM events WHERE id <= ? ORDER BY creator_id", 6, 20, 6, 10},
		{"SELECT creator_id, COUNT(*) AS n, MAX(score) FROM events WHERE id <= ? GROUP BY creator_id ORDER BY creator_id", 3, 20, 3, 10},
	} {
		st, err := s.eng.Prepare(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		var out Reply
		args := map[int64][]Value{tc.small: {NewInt(tc.small)}, tc.big: {NewInt(tc.big)}} // built once: a variadic call's own slice would escape
		read := func(arg int64) *ResultSet {
			res, err := st.RunInto(s, &out, args[arg]...)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			return res.Set
		}
		if first := read(tc.small); len(first.Rows) != tc.nSmall || out.space != nil {
			t.Fatalf("%s (%d): %d rows, storage kept %v; want %d rows and none kept", tc.sql, tc.small, len(first.Rows), out.space != nil, tc.nSmall)
		}
		second := read(tc.small)
		held, vals := second.Rows, &second.Rows[0][0]
		if out.space == nil || !within(vals, out.space.vals) {
			t.Fatalf("%s: the second read's rows are not in storage the Reply keeps", tc.sql)
		}
		if allocs := testing.AllocsPerRun(20, func() { read(tc.small) }); allocs != 0 {
			t.Errorf("%s: a read that fits allocates %.1f objects, want 0", tc.sql, allocs)
		}
		if got := read(tc.small); &got.Rows[0][0] != vals || &got.Rows[0] != &held[0] {
			t.Errorf("%s: a read that fits did not answer in the last one's storage", tc.sql)
		}

		big := read(tc.big)
		if len(big.Rows) != tc.nBig {
			t.Fatalf("%s (%d): %d rows, want %d", tc.sql, tc.big, len(big.Rows), tc.nBig)
		}
		if &big.Rows[0][0] == vals || cap(out.space.rows) < tc.nBig {
			t.Errorf("%s: a larger result did not grow the storage (%d row headers)", tc.sql, cap(out.space.rows))
		}
		grown := &out.space.vals[0]
		small := read(tc.small)
		if &small.Rows[0][0] != grown || len(small.Rows) != tc.nSmall {
			t.Errorf("%s: the read after the larger one did not answer in the grown storage", tc.sql)
		}
		if allocs := testing.AllocsPerRun(20, func() { read(tc.big); read(tc.small) }); allocs != 0 {
			t.Errorf("%s: reads within the grown storage allocate %.1f objects, want 0", tc.sql, allocs)
		}

		// A Reply read into once costs itself: its values and row headers come
		// from the plan's chunks.
		fresh := testing.AllocsPerRun(20, func() {
			var r Reply
			if _, err := st.RunInto(s, &r, args[tc.small]...); err != nil {
				t.Fatal(err)
			}
		})
		ran := testing.AllocsPerRun(20, func() {
			if _, err := st.Run(s, args[tc.small]...); err != nil {
				t.Fatal(err)
			}
		})
		if fresh != 1 || ran != 1 {
			t.Errorf("%s: a fresh Reply costs %.0f objects, Run %.0f; want 1 each (the Reply)", tc.sql, fresh, ran)
		}
	}

	// Legs answer in Replies they keep; the merge's rows are its own.
	parsed, err := Parse("SELECT creator_id, COUNT(*) AS n FROM events GROUP BY creator_id ORDER BY n DESC, creator_id")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerge(parsed.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	leg, err := s.eng.Prepare(m.CellSQL)
	if err != nil {
		t.Fatal(err)
	}
	var legs [2]Reply
	merge := func() *ResultSet {
		var sets []*ResultSet
		for i := range legs {
			res, err := leg.RunInto(s, &legs[i])
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, res.Set)
		}
		out := new(ResultSet)
		if err := m.Run(sets, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	merge() // the legs' second reads keep their storage
	kept := merge()
	was := fmt.Sprint(kept.Rows)
	for _, row := range kept.Rows {
		for i := range legs {
			if within(&row[0], legs[i].space.vals) {
				t.Fatalf("a merged row lies in leg %d's reply", i)
			}
		}
	}
	// The next merge has as many groups, in another order.
	if _, err := s.Exec("UPDATE events SET creator_id = 1 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if again := fmt.Sprint(merge().Rows); again == was {
		t.Fatalf("the merge after the UPDATE returned the same rows: %s", again)
	}
	for i := range legs {
		vals := legs[i].space.vals[:cap(legs[i].space.vals)]
		for j := range vals {
			vals[j] = NewString("sentinel")
		}
	}
	if now := fmt.Sprint(kept.Rows); now != was {
		t.Errorf("a merged result changed under a later merge and its legs' replies:\n now %s\n was %s", now, was)
	}
}

// TestHeldResultsOutliveTheirChunks: a result answered in storage of its own —
// a point read, a top-N, a DISTINCT and an aggregate read run into a fresh
// Reply each, and a Merge — is carved from chunks its plan keeps, and stays
// the caller's. The first reads of each plan are held while the plan answers
// enough reads after them to open two more chunks for values and two for row
// headers; every held result must still render as it did, and appending to a
// held row or row list must leave every other held result, and the rest of
// its own, as they were. results/pr48/mutations.txt shows the test failing on
// a slab that rewinds a chunk for reuse, and on one whose takes leave their
// capacity open.
func TestHeldResultsOutliveTheirChunks(t *testing.T) {
	s := newTestDB(t)
	arg := func(i int) []Value { return []Value{NewInt(int64(i%20 + 1))} }
	type reader struct {
		name string
		rt   *runState // the plan whose chunks the results come from
		read func(i int) *ResultSet
	}
	var readers []reader
	for _, sql := range []string{
		"SELECT id, name FROM users WHERE id = ?",
		"SELECT id, title FROM events WHERE id <= ? ORDER BY score DESC LIMIT 3",
		"SELECT DISTINCT creator_id FROM events WHERE id <= ? ORDER BY creator_id",
		"SELECT creator_id, COUNT(*) AS n, MAX(score) FROM events WHERE id >= ? GROUP BY creator_id ORDER BY n DESC, creator_id",
	} {
		st, err := s.eng.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := st.Plan(s)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, reader{sql, &p.rt, func(i int) *ResultSet {
			res, err := st.Run(s, arg(i)...)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			return res.Set
		}})
	}
	const merged = "SELECT id, title FROM events WHERE id <= ? ORDER BY score DESC, id LIMIT 4"
	parsed, err := Parse(merged)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerge(parsed.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	leg, err := s.eng.Prepare(m.CellSQL)
	if err != nil {
		t.Fatal(err)
	}
	var legs [2]Reply
	readers = append(readers, reader{"merge of " + merged, &m.plan.rt, func(i int) *ResultSet {
		sets := make([]*ResultSet, len(legs))
		for j := range legs {
			res, err := leg.RunInto(s, &legs[j], arg(i+5*j)...)
			if err != nil {
				t.Fatal(err)
			}
			sets[j] = res.Set
		}
		out := new(ResultSet)
		if err := m.Run(sets, out); err != nil {
			t.Fatal(err)
		}
		return out
	}})

	var held []*ResultSet
	var was []string
	for _, r := range readers {
		for i := range 3 {
			set := r.read(i)
			if len(set.Rows) == 0 {
				t.Fatalf("%s: read %d returned no rows", r.name, i)
			}
			held, was = append(held, set), append(was, fmt.Sprint(set.Rows))
		}
	}
	intact := func(after string) {
		t.Helper()
		for i, set := range held {
			if now := fmt.Sprint(set.Rows); now != was[i] {
				t.Errorf("held result %d (%s) changed after %s:\n now %s\n was %s", i, readers[i/3].name, after, now, was[i])
			}
		}
	}

	for _, r := range readers {
		opened := [2]int{} // chunks opened for values and for row headers
		for i := 3; opened[0] < 2 || opened[1] < 2; i++ {
			if i == 100_000 {
				t.Fatalf("%s: %d reads opened %v chunks", r.name, i, opened)
			}
			vals, rows := len(r.rt.vals.free), len(r.rt.rows.free)
			r.read(i)
			if len(r.rt.vals.free) > vals {
				opened[0]++
			}
			if len(r.rt.rows.free) > rows {
				opened[1]++
			}
		}
	}
	intact("their plans opened two chunks more")

	for _, set := range held {
		for _, row := range set.Rows {
			_ = append(row, NewString("appended"))
		}
		_ = append(set.Rows, set.Rows[0])
	}
	intact("appends to every held row and row list")
}
