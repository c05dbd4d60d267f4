package binlog

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

// FuzzDecode feeds arbitrary bytes through the single-entry decoder. A
// successful decode must be a faithful parse: re-encoding the entry must
// reproduce the input byte-for-byte (no silent truncation), and the entry's
// WireSize must equal the consumed length.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(entry(1, "app", "INSERT INTO t VALUES (1)", 99).Encode())
	f.Add(entry(1<<40, "", "", -1).Encode())
	// Oversized length prefixes: a header that claims 4 GiB of database
	// name, and one that claims more SQL than the buffer holds.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(append(entry(0, "d", "x", 0).Encode()[:25], 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data) // must not panic on any input
		if err != nil {
			return
		}
		if got := e.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("decode of %d bytes not faithful: re-encoded to %d bytes", len(data), len(got))
		}
		if e.WireSize() != len(data) {
			t.Fatalf("WireSize %d != consumed %d", e.WireSize(), len(data))
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
	// Decode (exact-length contract) must reject the concatenation.
	if _, err := Decode(stream); err == nil {
		t.Fatal("Decode accepted trailing bytes")
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
