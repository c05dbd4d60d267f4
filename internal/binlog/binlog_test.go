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
	r := l.NewReader(0)
	var got []uint64
	env.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			e := r.Next(p)
			got = append(got, e.Seq)
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
	r := l.NewReader(l.LastSeq())
	if _, ok := r.TryNext(); ok {
		t.Fatal("reader at tail returned an entry")
	}
	l.Append("db", "C", 0)
	e, ok := r.TryNext()
	if !ok || e.SQL != "C" {
		t.Fatalf("got %+v/%v, want C", e, ok)
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
	r1, r2 := l.NewReader(0), l.NewReader(1)
	e1, _ := r1.TryNext()
	e2, _ := r2.TryNext()
	if e1.SQL != "A" || e2.SQL != "B" {
		t.Fatalf("readers interfered: %q %q", e1.SQL, e2.SQL)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := Entry{Seq: 42, Database: "heartbeats", SQL: "INSERT INTO heartbeat VALUES (1, UTC_MICROS())", TimestampMicros: 1234567890}
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

// The prepared form is in-memory only: it adds no wire bytes, Encode never
// writes it and a decoded entry comes back without it.
func TestPreparedFormStaysOffTheWire(t *testing.T) {
	bare := Entry{Seq: 7, Database: "app", SQL: "INSERT INTO t (id) VALUES (9)", TimestampMicros: 5}
	e := bare
	e.Stmt, e.Args = "INSERT INTO t (id) VALUES (?)", []sqlengine.Value{sqlengine.NewInt(9)}
	if e.WireSize() != bare.WireSize() || !bytes.Equal(e.Encode(), bare.Encode()) {
		t.Fatal("prepared form reached the wire encoding")
	}
	got, err := DecodeBatch(EncodeBatch([]Entry{e}))
	if err != nil || !reflect.DeepEqual(got, []Entry{bare}) {
		t.Fatalf("decoded %+v (%v), want the bare entry", got, err)
	}
	l := New(sim.NewEnv(1))
	l.AppendWrite(e.Database, e.Logged(), e.TimestampMicros)
	if at, _ := l.At(1); at.Stmt != e.Stmt || len(at.Args) != 1 || l.Bytes() != int64(bare.WireSize()) {
		t.Fatalf("log entry %+v, %d bytes", at, l.Bytes())
	}
}

func TestDecodeTruncated(t *testing.T) {
	e := Entry{Seq: 1, Database: "d", SQL: "SELECT 1", TimestampMicros: 5}
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
		e := Entry{Seq: seq, Database: db, SQL: sql, TimestampMicros: ts}
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
