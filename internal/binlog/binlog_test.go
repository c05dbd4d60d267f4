package binlog

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// entry is an entry known only by its text, as Append and DecodeFrom make one.
func entry(seq uint64, db, sql string, ts int64) Entry {
	return Entry{Seq: seq, Database: db, TimestampMicros: ts, LoggedWrite: sqlengine.LoggedWrite{SQL: sql}}
}

func readerAt(t *testing.T, l *Log, pos uint64) *Reader {
	t.Helper()
	r, err := l.NewReader(pos)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAppendAssignsDenseSequences(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env)
	for i := 1; i <= 5; i++ {
		if seq := l.Append("db", "INSERT ...", int64(i)); seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if l.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
	e, err := l.At(3)
	if err != nil || e.TimestampMicros != 3 {
		t.Fatalf("At(3) = %+v, %v", e, err)
	}
	if _, err := l.At(6); err == nil {
		t.Fatal("At(6) should fail")
	}
	if _, err := l.At(0); err == nil {
		t.Fatal("At(0) should fail")
	}
}

// TestAppendCommitFlagsAllButTheLast: AppendCommit flags every write of a
// commit but its last, Append (a commit of one) flags nothing, the flag costs
// no byte on the wire and survives the round trip, and a reader hands out
// the commit whole whatever its entry cap.
func TestAppendCommitFlagsAllButTheLast(t *testing.T) {
	l := New(sim.NewEnv(1))
	l.Append("db", "A", 0)
	writes := []sqlengine.LoggedWrite{{SQL: "B"}, {SQL: "C"}, {SQL: "D"}}
	if seq := l.AppendCommit("db", writes, 1); seq != 4 {
		t.Fatalf("commit ends at seq %d, want 4", seq)
	}
	l.Append("db", "E", 2)
	var size int64
	for i, want := range []bool{false, true, true, false, false} {
		seq := i + 1
		e, _ := l.At(uint64(seq))
		if e.More != want {
			t.Errorf("seq %d: More %v, want %v", seq, e.More, want)
		}
		plain := e
		plain.More = false
		if e.WireSize() != plain.WireSize() || len(e.Encode()) != len(plain.Encode()) {
			t.Errorf("seq %d: the flag changed the entry's size", seq)
		}
		if d, _, err := DecodeFrom(e.Encode()); err != nil || !reflect.DeepEqual(d, e) {
			t.Errorf("seq %d: decoded %+v, %v; want %+v", seq, d, err, e)
		}
		size += int64(e.WireSize())
	}
	if l.Bytes() != size {
		t.Errorf("Bytes %d, want %d", l.Bytes(), size)
	}
	r := readerAt(t, l, 0)
	for _, want := range []int{1, 3, 1} {
		if b := r.TryNextBatch(1); len(b) != want {
			t.Fatalf("batch of %d entries, want %d", len(b), want)
		}
	}
}

func TestReaderTailsBlocking(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env)
	r := readerAt(t, l, 0)
	var got []uint64
	env.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			for _, e := range r.NextBatch(p, 1) {
				got = append(got, e.Seq)
			}
		}
	})
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			l.Append("db", "X", 0)
		}
	})
	env.Run()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("reader got %v", got)
	}
}

func TestReaderStartsMidLog(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env)
	l.Append("db", "A", 0)
	l.Append("db", "B", 0)
	r := readerAt(t, l, l.LastSeq())
	if b := r.TryNextBatch(1); b != nil {
		t.Fatalf("reader at tail returned %+v", b)
	}
	l.Append("db", "C", 0)
	b := r.TryNextBatch(1)
	if len(b) != 1 || b[0].SQL != "C" {
		t.Fatalf("got %+v, want C", b)
	}
	if r.pos != l.LastSeq() {
		t.Fatalf("reader at %d, tail at %d", r.pos, l.LastSeq())
	}
}

func TestMultipleReadersIndependent(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env)
	l.Append("db", "A", 0)
	l.Append("db", "B", 0)
	r1, r2 := readerAt(t, l, 0), readerAt(t, l, 1)
	b1, b2 := r1.TryNextBatch(1), r2.TryNextBatch(1)
	if len(b1) != 1 || len(b2) != 1 || b1[0].SQL != "A" || b2[0].SQL != "B" {
		t.Fatalf("readers interfered: %+v %+v", b1, b2)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := entry(42, "heartbeats", "INSERT INTO heartbeat VALUES (1, UTC_MICROS())", 1234567890)
	got, n, err := DecodeFrom(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) || n != len(e.Encode()) {
		t.Fatalf("round trip: %+v != %+v, %d bytes consumed", got, e, n)
	}
	if len(e.Encode()) != e.WireSize() {
		t.Fatalf("WireSize %d != encoded %d", e.WireSize(), len(e.Encode()))
	}
}

// The prepared form is in-memory only: its text is counted without being
// rendered, Encode writes the text and nothing else, and a decoded entry comes
// back as the text alone. At fills the text in.
func TestPreparedFormStaysOffTheWire(t *testing.T) {
	st, err := sqlengine.NewEngine().Prepare("INSERT INTO t (id) VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Logged([]sqlengine.Value{sqlengine.NewInt(9)})
	if err != nil {
		t.Fatal(err)
	}
	bare := entry(7, "app", "INSERT INTO t (id) VALUES (9)", 5)
	e := Entry{Seq: 7, Database: "app", TimestampMicros: 5, LoggedWrite: w}
	if e.SQL != "" || e.WireSize() != bare.WireSize() || !bytes.Equal(e.Encode(), bare.Encode()) {
		t.Fatalf("prepared form %+v does not encode as its text", e)
	}
	got, err := DecodeBatch(EncodeBatch([]Entry{e}))
	if err != nil || !reflect.DeepEqual(got, []Entry{bare}) {
		t.Fatalf("decoded %+v (%v), want the bare entry", got, err)
	}
	l := New(sim.NewEnv(1))
	l.AppendCommit(e.Database, []sqlengine.LoggedWrite{e.LoggedWrite}, e.TimestampMicros)
	if at, _ := l.At(1); at.SQL != bare.SQL || at.Stmt != w.Stmt || len(at.Args) != 1 || l.Bytes() != int64(bare.WireSize()) {
		t.Fatalf("log entry %+v, %d bytes", at, l.Bytes())
	}
}

func TestDecodeTruncated(t *testing.T) {
	e := entry(1, "d", "SELECT 1", 5)
	buf := e.Encode()
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeFrom(buf[:cut]); err == nil {
			t.Fatalf("DecodeFrom of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

// Property: encode/decode round-trips arbitrary printable content.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seq uint64, ts int64, db, sql string) bool {
		e := entry(seq, db, sql, ts)
		enc := e.Encode()
		got, n, err := DecodeFrom(enc)
		return err == nil && n == len(enc) && reflect.DeepEqual(got, e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env)
	l.Append("db", "AAAA", 0)
	l.Append("db", "BB", 0)
	e1, _ := l.At(1)
	e2, _ := l.At(2)
	if l.Bytes() != int64(e1.WireSize()+e2.WireSize()) {
		t.Fatalf("Bytes = %d", l.Bytes())
	}
}

// coalesce is the dump thread's batching rule stated commit by commit: the
// first commit unconditionally, then each next commit while the run stays
// within maxEntries. NextBatch must cut the same runs.
func coalesce(commits [][]Entry, maxEntries int) (batch []Entry, taken int) {
	for _, c := range commits {
		if taken > 0 && len(batch)+len(c) > maxEntries {
			break
		}
		batch = append(batch, c...)
		taken++
	}
	return batch, taken
}

func TestNextBatchCutsTheSameRuns(t *testing.T) {
	f := func(base uint16, sizes []uint8, maxEntries uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		// An odd base is a log that starts at that position.
		start := uint64(base) * uint64(base%2)
		l := NewAt(sim.NewEnv(1), start)
		// Each size makes one commit of 1 + size%4 writes of size bytes.
		var commits [][]Entry
		for i, n := range sizes {
			writes := make([]sqlengine.LoggedWrite, 1+n%4)
			for w := range writes {
				writes[w].SQL = string(make([]byte, n))
			}
			from := l.LastSeq()
			l.AppendCommit("db", writes, int64(i))
			var c []Entry
			for seq := from + 1; seq <= l.LastSeq(); seq++ {
				e, _ := l.At(seq)
				c = append(c, e)
			}
			commits = append(commits, c)
		}
		// -1 and 0 exercise "no batching".
		me := int(maxEntries%12) - 1
		r := readerAt(t, l, start)
		for rest := commits; len(rest) > 0; {
			want, taken := coalesce(rest, me)
			got := r.TryNextBatch(me)
			if !reflect.DeepEqual(got, want) || r.pos != want[len(want)-1].Seq {
				return false
			}
			rest = rest[taken:]
		}
		return r.TryNextBatch(me) == nil && r.pos == l.LastSeq()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A batch is a window onto the log's storage, not a copy: it aliases the
// entries while they are where they were, it is still intact after the log
// has been reallocated under it ten times over, and appending to it — what
// the I/O thread's coalescing does — copies instead of writing into the log.
func TestNextBatchIsAWindowOntoTheLog(t *testing.T) {
	l := New(sim.NewEnv(1))
	for i := 0; i < 8; i++ {
		l.Append("db", "stmt", int64(i))
	}
	r := readerAt(t, l, 2)
	b := r.TryNextBatch(3)
	if len(b) != 3 || cap(b) != 3 || b[0].Seq != 3 {
		t.Fatalf("window len %d cap %d first seq %d, want 3, 3, 3", len(b), cap(b), b[0].Seq)
	}
	if &b[0] != &l.entries[2] {
		t.Fatal("the batch is a copy, not a window onto the log")
	}
	held := append([]Entry(nil), b...)

	grown := append(b, entry(99, "", "scribble", 0))
	if e, _ := l.At(6); e.Seq != 6 || e.SQL != "stmt" {
		t.Fatalf("appending to a batch wrote into the log: entry 6 is now %+v", e)
	}
	if &grown[0] == &b[0] {
		t.Fatal("append to a batch did not copy")
	}

	reallocs, arr := 0, &l.entries[0]
	for reallocs < 10 {
		l.Append("db", "later", 0)
		if &l.entries[0] != arr {
			reallocs, arr = reallocs+1, &l.entries[0]
		}
	}
	if !reflect.DeepEqual(b, held) {
		t.Fatalf("batch changed under %d log reallocations: %+v", reallocs, b)
	}
	if &b[0] == &l.entries[2] {
		t.Fatal("log never moved; the test proved nothing")
	}
	// The reader goes on from where the window ended, in the new array.
	if next := r.TryNextBatch(2); len(next) != 2 || next[0].Seq != 6 || &next[0] != &l.entries[5] {
		t.Fatalf("next batch %+v", next)
	}
}

// TestLogStartingAtAPosition: a log from NewAt(base) numbers its entries from
// base+1 as if 1..base had been written and purged — what is at or below the
// base cannot be read, by sequence or by reader; everything else behaves as on
// a log from New, shifted.
func TestLogStartingAtAPosition(t *testing.T) {
	const base = 40
	env := sim.NewEnv(1)
	l := NewAt(env, base)
	if l.LastSeq() != base || l.Bytes() != 0 {
		t.Fatalf("empty log at %d: LastSeq %d, Bytes %d", base, l.LastSeq(), l.Bytes())
	}
	var size int64
	env.Go("writer", func(p *sim.Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Second)
			if seq := l.Append("db", "stmt", int64(i)); seq != base+uint64(i) {
				t.Errorf("entry %d took seq %d, want %d", i, seq, base+i)
			}
			e, _ := l.At(base + uint64(i))
			size += int64(e.WireSize())
		}
	})
	env.Run()
	if l.LastSeq() != base+3 || l.Bytes() != size {
		t.Fatalf("LastSeq %d, Bytes %d; want %d, %d (the purged prefix has no bytes)", l.LastSeq(), l.Bytes(), base+3, size)
	}
	for _, c := range []struct {
		seq       uint64
		held      bool
		committed sim.Time
	}{
		{0, false, 0}, {1, false, 0}, {base - 1, false, 0}, {base, false, 0}, // purged
		{base + 1, true, sim.Time(time.Second)}, {base + 3, true, sim.Time(3 * time.Second)},
		{base + 4, false, 0}, // not written yet
	} {
		e, err := l.At(c.seq)
		if (err == nil) != c.held || c.held && e.Seq != c.seq {
			t.Errorf("At(%d) = %+v, %v; held = %v", c.seq, e, err, c.held)
		}
		if got := l.CommittedAt(c.seq); got != c.committed {
			t.Errorf("CommittedAt(%d) = %v, want %v", c.seq, got, c.committed)
		}
	}
	for _, pos := range []uint64{0, base - 1} {
		if r, err := l.NewReader(pos); err == nil {
			t.Errorf("NewReader(%d) on a log starting after %d: reader at %d, want an error", pos, base, r.pos)
		}
	}
	// At the base a reader sees everything held; above it, the rest; at the
	// tail, nothing until the next append.
	for _, c := range []struct{ pos, first, n uint64 }{{base, base + 1, 3}, {base + 2, base + 3, 1}, {base + 3, 0, 0}} {
		r := readerAt(t, l, c.pos)
		b := r.TryNextBatch(10)
		if uint64(len(b)) != c.n || c.n > 0 && (b[0].Seq != c.first || r.pos != base+3) {
			t.Errorf("reader at %d: batch %+v, pos %d", c.pos, b, r.pos)
		}
	}
}
