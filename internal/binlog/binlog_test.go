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

// entry is an entry known only by its text, as Append and Decode make one.
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

func TestReaderTailsBlocking(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env)
	r := readerAt(t, l, 0)
	var got []uint64
	env.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			for _, e := range r.NextBatch(p, 1, 0) {
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
	if b := r.TryNextBatch(1, 0); b != nil {
		t.Fatalf("reader at tail returned %+v", b)
	}
	l.Append("db", "C", 0)
	b := r.TryNextBatch(1, 0)
	if len(b) != 1 || b[0].SQL != "C" {
		t.Fatalf("got %+v, want C", b)
	}
	if r.Backlog() != 0 {
		t.Fatalf("backlog = %d", r.Backlog())
	}
}

func TestMultipleReadersIndependent(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env)
	l.Append("db", "A", 0)
	l.Append("db", "B", 0)
	r1, r2 := readerAt(t, l, 0), readerAt(t, l, 1)
	b1, b2 := r1.TryNextBatch(1, 0), r2.TryNextBatch(1, 0)
	if len(b1) != 1 || len(b2) != 1 || b1[0].SQL != "A" || b2[0].SQL != "B" {
		t.Fatalf("readers interfered: %+v %+v", b1, b2)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := entry(42, "heartbeats", "INSERT INTO heartbeat VALUES (1, UTC_MICROS())", 1234567890)
	got, err := Decode(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip: %+v != %+v", got, e)
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
	l.AppendWrite(e.Database, e.LoggedWrite, e.TimestampMicros)
	if at, _ := l.At(1); at.SQL != bare.SQL || at.Stmt != w.Stmt || len(at.Args) != 1 || l.Bytes() != int64(bare.WireSize()) {
		t.Fatalf("log entry %+v, %d bytes", at, l.Bytes())
	}
}

func TestDecodeTruncated(t *testing.T) {
	e := entry(1, "d", "SELECT 1", 5)
	buf := e.Encode()
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

// Property: encode/decode round-trips arbitrary printable content.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seq uint64, ts int64, db, sql string) bool {
		e := entry(seq, db, sql, ts)
		got, err := Decode(e.Encode())
		return err == nil && reflect.DeepEqual(got, e)
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

// coalesce is the dump thread's batching rule as it stood when batches were
// built entry by entry: one entry unconditionally, then more while both caps
// allow. NextBatch must cut the same runs.
func coalesce(entries []Entry, maxEntries, maxBytes int) []Entry {
	if maxEntries < 1 {
		maxEntries = 1
	}
	batch := []Entry{entries[0]}
	bytes := entries[0].WireSize()
	for len(batch) < maxEntries && (maxBytes <= 0 || bytes < maxBytes) && len(batch) < len(entries) {
		next := entries[len(batch)]
		batch = append(batch, next)
		bytes += next.WireSize()
	}
	return batch
}

func TestNextBatchCutsTheSameRuns(t *testing.T) {
	f := func(base uint16, sizes []uint8, maxEntries uint8, maxBytes uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		// An odd base is a log that starts at that position.
		start := uint64(base) * uint64(base%2)
		l := NewAt(sim.NewEnv(1), start)
		var all []Entry
		for i, n := range sizes {
			l.Append("db", string(make([]byte, n)), int64(i))
			e, _ := l.At(start + uint64(i+1))
			all = append(all, e)
		}
		// -1 and 0 exercise "no batching" and "no byte cap".
		me, mb := int(maxEntries%70)-1, int(maxBytes%600)
		r := readerAt(t, l, start)
		for rest := all; len(rest) > 0; {
			want := coalesce(rest, me, mb)
			got := r.TryNextBatch(me, mb)
			if !reflect.DeepEqual(got, want) || r.Pos() != want[len(want)-1].Seq {
				return false
			}
			rest = rest[len(want):]
		}
		return r.TryNextBatch(me, mb) == nil && r.Backlog() == 0
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
	b := r.TryNextBatch(3, 0)
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
	if next := r.TryNextBatch(2, 0); len(next) != 2 || next[0].Seq != 6 || &next[0] != &l.entries[5] {
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
			t.Errorf("NewReader(%d) on a log starting after %d: reader at %d, want an error", pos, base, r.Pos())
		}
	}
	// At the base a reader sees everything held; above it, the rest; at the
	// tail, nothing until the next append.
	for _, c := range []struct{ pos, first, n uint64 }{{base, base + 1, 3}, {base + 2, base + 3, 1}, {base + 3, 0, 0}} {
		r := readerAt(t, l, c.pos)
		if r.Backlog() != c.n {
			t.Errorf("reader at %d: backlog %d, want %d", c.pos, r.Backlog(), c.n)
		}
		b := r.TryNextBatch(10, 0)
		if uint64(len(b)) != c.n || c.n > 0 && (b[0].Seq != c.first || r.Pos() != base+3) {
			t.Errorf("reader at %d: batch %+v, pos %d", c.pos, b, r.Pos())
		}
	}
}
