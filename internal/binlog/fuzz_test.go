package binlog

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

// FuzzDecode feeds arbitrary bytes through the single-entry decoder. A
// successful decode must consume no more than the input and be a faithful
// parse of what it consumed: re-encoding the entry must reproduce that prefix
// byte-for-byte (no silent truncation), and the entry's WireSize must equal
// the consumed length.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(entry(1, "app", "INSERT INTO t VALUES (1)", 99).Encode())
	f.Add(entry(1<<40, "", "", -1).Encode())
	// An entry that more of its commit follows: the flag rides in the high
	// bit of the text's length word.
	more := entry(5, "app", "INSERT INTO t VALUES (5)", 99)
	more.More = true
	f.Add(more.Encode())
	// Oversized length prefixes: a header that claims 4 GiB of database
	// name, and one that claims more SQL than the buffer holds.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(append(entry(0, "d", "x", 0).Encode()[:25], 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := DecodeFrom(data) // must not panic on any input
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if got := e.Encode(); !bytes.Equal(got, data[:n]) {
			t.Fatalf("decode of %d bytes not faithful: re-encoded to %d bytes", n, len(got))
		}
		if e.WireSize() != n {
			t.Fatalf("WireSize %d != consumed %d", e.WireSize(), n)
		}
	})
}

// FuzzDecodeBatch is FuzzDecode for the batch framing.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch([]Entry{
		entry(1, "app", "UPDATE t SET v = 1", 7),
		entry(2, "app", "DELETE FROM u", 8),
	}))
	// A commit of two writes followed by an autocommit write.
	first := entry(3, "app", "INSERT INTO t VALUES (3)", 9)
	first.More = true
	f.Add(EncodeBatch([]Entry{first, entry(4, "app", "INSERT INTO u VALUES (3)", 9), entry(5, "app", "DELETE FROM u", 10)}))
	// Count prefix far larger than the payload could hold.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if got := EncodeBatch(entries); !bytes.Equal(got, data) {
			t.Fatalf("batch decode of %d bytes not faithful: re-encoded to %d bytes", len(data), len(got))
		}
	})
}

// Property: WireSize and Encode stay in lockstep for arbitrary entries, and
// batches of them round-trip through the batch framing.
func TestWireSizeMatchesEncode(t *testing.T) {
	f := func(seq uint64, ts int64, db, sql string) bool {
		e := entry(seq, db, sql, ts)
		if len(e.Encode()) != e.WireSize() {
			return false
		}
		batch := []Entry{e, entry(seq+1, "", sql, 0)}
		enc := EncodeBatch(batch)
		if len(enc) != BatchWireSize(batch) {
			return false
		}
		dec, err := DecodeBatch(enc)
		return err == nil && len(dec) == 2 && reflect.DeepEqual(dec[0], e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// DecodeFrom must consume exactly one entry and report its length, leaving
// the remainder intact — the contract the batch decoder builds on.
func TestDecodeFromStream(t *testing.T) {
	a := entry(1, "d1", "INSERT INTO a VALUES (1)", 10)
	b := entry(2, "d2", "INSERT INTO b VALUES (2)", 20)
	stream := append(a.Encode(), b.Encode()...)

	got, n, err := DecodeFrom(stream)
	if err != nil || !reflect.DeepEqual(got, a) || n != a.WireSize() {
		t.Fatalf("first entry: %+v n=%d err=%v", got, n, err)
	}
	got, n, err = DecodeFrom(stream[n:])
	if err != nil || !reflect.DeepEqual(got, b) || n != b.WireSize() {
		t.Fatalf("second entry: %+v n=%d err=%v", got, n, err)
	}
}

// Truncating an encoded batch anywhere must fail cleanly, never panic.
func TestDecodeBatchTruncated(t *testing.T) {
	buf := EncodeBatch([]Entry{
		entry(1, "app", "UPDATE t SET v = 1", 0),
		entry(2, "app", "UPDATE t SET v = 2", 0),
	})
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeBatch(buf[:cut]); err == nil {
			t.Fatalf("DecodeBatch of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}
