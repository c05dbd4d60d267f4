// Package binlog implements a statement-based binary log in the style of
// MySQL 5.x: an append-only sequence of committed write statements, each
// tagged with the master's local commit timestamp, plus blocking readers
// (one per replication dump thread) that tail the log.
//
// In memory an entry is the write the master's engine logged
// (sqlengine.LoggedWrite): for a parameterised statement, its prepared form —
// parameterised text plus argument values — which a replica handed the entry
// without a trip through the codec re-executes with its own compiled plan.
// On the wire (Encode) it is sequence, timestamp, database and the
// interpolated statement text, rendered from that form, and nothing else;
// WireSize and Bytes count that text without rendering it, and DecodeFrom
// leaves the prepared form empty, so the replica parses.
//
// The unit of replication is the commit: the consecutive entries one
// AppendCommit wrote, every one but the last flagged More. Readers hand out
// whole commits only (Reader.NextBatch), so everything downstream — relay,
// dispatch, apply, acknowledgements — takes the commit it is handed.
package binlog

import (
	"encoding/binary"
	"fmt"

	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// Entry is one committed statement in the log.
type Entry struct {
	// Seq is the entry's position, 1-based and dense.
	Seq uint64
	// Database is the default database the statement executed under.
	Database string
	// TimestampMicros is the master's local clock at commit, in µs.
	TimestampMicros int64
	// More reports that the next entry belongs to the same commit: set on
	// every write of a commit but its last, so an autocommit write — a
	// commit of one — never carries it.
	More bool
	// LoggedWrite is the statement: its text (SQL, or Text() for a prepared
	// form) and its prepared form (Stmt, Args), which is in-memory only,
	// never encoded. Args is shared by every copy of the entry and must not
	// be modified.
	sqlengine.LoggedWrite
}

// WireSize returns the encoded size in bytes, used for transfer accounting.
func (e Entry) WireSize() int { return 8 + 8 + 4 + len(e.Database) + 4 + e.TextLen() }

// moreBit is More's place on the wire: the high bit of the text's length
// word. A text that long does not fit any buffer DecodeFrom is handed — it
// has always failed there as truncated — so the bit changes no encoding that
// was valid before.
const moreBit = 1 << 31

// Encode serializes the entry (length-prefixed strings, little endian).
func (e Entry) Encode() []byte {
	buf := make([]byte, 0, e.WireSize())
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], e.Seq)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(e.TimestampMicros))
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.Database)))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, e.Database...)
	textLen := uint32(e.TextLen())
	if e.More {
		textLen |= moreBit
	}
	binary.LittleEndian.PutUint32(tmp[:4], textLen)
	buf = append(buf, tmp[:4]...)
	buf = append(buf, e.Text()...)
	return buf
}

// DecodeFrom parses one encoded entry from the front of buf and returns the
// number of bytes consumed. Length prefixes are validated against the
// remaining input in uint64 space, so an adversarial 4 GiB prefix can
// neither wrap the offset arithmetic nor index past the buffer.
func DecodeFrom(buf []byte) (Entry, int, error) {
	var e Entry
	if len(buf) < 24 {
		return e, 0, fmt.Errorf("binlog: truncated entry header")
	}
	e.Seq = binary.LittleEndian.Uint64(buf[0:8])
	e.TimestampMicros = int64(binary.LittleEndian.Uint64(buf[8:16]))
	dbLen := binary.LittleEndian.Uint32(buf[16:20])
	if uint64(dbLen)+4 > uint64(len(buf)-20) {
		return Entry{}, 0, fmt.Errorf("binlog: truncated database name")
	}
	off := 20 + int(dbLen)
	e.Database = string(buf[20:off])
	sqlLen := binary.LittleEndian.Uint32(buf[off : off+4])
	e.More, sqlLen = sqlLen&moreBit != 0, sqlLen&^moreBit
	off += 4
	if uint64(sqlLen) > uint64(len(buf)-off) {
		return Entry{}, 0, fmt.Errorf("binlog: truncated SQL text")
	}
	e.SQL = string(buf[off : off+int(sqlLen)])
	return e, off + int(sqlLen), nil
}

// BatchWireSize returns the encoded size of a batch: a uint32 entry count
// followed by the concatenated entries.
func BatchWireSize(entries []Entry) int {
	n := 4
	for _, e := range entries {
		n += e.WireSize()
	}
	return n
}

// EncodeBatch serializes a group of entries as one network transit — the
// unit the batched dump thread ships.
func EncodeBatch(entries []Entry) []byte {
	buf := make([]byte, 4, BatchWireSize(entries))
	binary.LittleEndian.PutUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = append(buf, e.Encode()...)
	}
	return buf
}

// DecodeBatch parses an encoded batch, rejecting trailing bytes and count
// prefixes that could not possibly fit the remaining input (each entry is
// at least 24 bytes, which bounds allocation before any parsing happens).
func DecodeBatch(buf []byte) ([]Entry, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("binlog: truncated batch header")
	}
	count := binary.LittleEndian.Uint32(buf)
	rest := buf[4:]
	if uint64(count)*24 > uint64(len(rest)) {
		return nil, fmt.Errorf("binlog: batch count %d exceeds payload", count)
	}
	entries := make([]Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		e, n, err := DecodeFrom(rest)
		if err != nil {
			return nil, fmt.Errorf("binlog: batch entry %d: %w", i, err)
		}
		entries = append(entries, e)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("binlog: %d trailing byte(s) after batch", len(rest))
	}
	return entries, nil
}

// Log is an in-memory append-only binlog with blocking tail readers. Readers
// hand out windows onto entries (Reader.NextBatch), so nothing may truncate
// the slice or assign to an element once it is appended; growing it is safe,
// because a window keeps the array it was cut from.
//
// A log may start at a position (NewAt): the entries up to and including its
// base count as written and purged — sequence numbers go on from there, and
// nothing at or below the base can be read back.
type Log struct {
	env      *sim.Env
	base     uint64  // sequence of the last purged entry; entries[i].Seq is base+i+1
	entries  []Entry // the entries held, in sequence order
	appended *sim.Signal
	bytes    int64
	// committedAt records each entry's commit point on the virtual
	// timeline, parallel to entries. It is measurement-plane state (never
	// serialized): replication-staleness probes use it to age unapplied
	// events without the clock-offset pollution of TimestampMicros.
	committedAt []sim.Time
}

// New creates an empty log bound to env.
func New(env *sim.Env) *Log { return NewAt(env, 0) }

// NewAt creates an empty log that starts after position base: the log of a
// server restored from an image taken when its source's log stood at base. Its
// first entry takes sequence base+1, so the two logs number every later
// statement alike.
func NewAt(env *sim.Env, base uint64) *Log {
	return &Log{env: env, base: base, appended: sim.NewSignal(env).Named("binlog-appended")}
}

// Append adds a statement known only by its text to the log and wakes
// tailing readers: a commit of that one write. It returns the assigned
// sequence number.
func (l *Log) Append(database, sql string, tsMicros int64) uint64 {
	return l.AppendCommit(database, []sqlengine.LoggedWrite{{SQL: sql}}, tsMicros)
}

// AppendCommit appends one commit's writes, as the engine's commit hook
// reports them (prepared forms included), as consecutive entries under one
// commit timestamp, each but the last flagged More, then wakes tailing
// readers once. It returns the sequence of the commit's last entry. writes
// is not kept.
func (l *Log) AppendCommit(database string, writes []sqlengine.LoggedWrite, tsMicros int64) uint64 {
	for i, w := range writes {
		e := Entry{Seq: l.LastSeq() + 1, Database: database, TimestampMicros: tsMicros, More: i < len(writes)-1, LoggedWrite: w}
		l.entries = append(l.entries, e)
		l.committedAt = append(l.committedAt, l.env.Now())
		l.bytes += int64(e.WireSize())
	}
	l.appended.Broadcast()
	return l.LastSeq()
}

// CommittedAt returns the virtual time the entry with the given sequence was
// appended (0 for sequences the log does not hold). Unlike
// Entry.TimestampMicros this is free of per-instance clock offset, making it
// the reference point for replication-staleness measurements.
func (l *Log) CommittedAt(seq uint64) sim.Time {
	if seq <= l.base || seq > l.LastSeq() {
		return 0
	}
	return l.committedAt[seq-l.base-1]
}

// LastSeq returns the sequence of the newest entry: the base while the log
// holds none (0 for a log from New).
func (l *Log) LastSeq() uint64 { return l.base + uint64(len(l.entries)) }

// Bytes returns the total encoded size of the entries the log holds.
func (l *Log) Bytes() int64 { return l.bytes }

// At returns the entry with the given sequence number, its SQL filled in
// (rendered from its prepared form if it has one).
func (l *Log) At(seq uint64) (Entry, error) {
	switch {
	case seq <= l.base:
		return Entry{}, l.purged(seq)
	case seq > l.LastSeq():
		return Entry{}, fmt.Errorf("binlog: no entry at seq %d (last %d)", seq, l.LastSeq())
	}
	e := l.entries[seq-l.base-1]
	e.SQL = e.Text()
	return e, nil
}

func (l *Log) purged(seq uint64) error {
	return fmt.Errorf("binlog: seq %d is purged (the log starts after %d)", seq, l.base)
}

// Reader tails the log from a position. Each dump thread owns one reader.
type Reader struct {
	log *Log
	pos uint64 // last delivered seq
}

// NewReader creates a reader starting after position pos (the log's base —
// 0 for a log from New — reads it from the beginning; pos=LastSeq() reads only
// new entries). A position below the base is an error: the entry after it is
// purged.
func (l *Log) NewReader(pos uint64) (*Reader, error) {
	if pos < l.base {
		return nil, l.purged(pos + 1)
	}
	return &Reader{log: l, pos: pos}, nil
}

// NextBatch blocks until the reader is behind the tail, then returns the
// run of whole commits after its position that one dump-thread transit
// carries: at least one commit, and no further once another would take the
// run past maxEntries (a value below 1 counts as 1). A run never ends inside
// a commit, so a commit longer than maxEntries ships alone, whole. It never
// waits for a run to fill.
//
// The run is a window onto the log's own storage, not a copy. The log is
// append-only and its entries are never rewritten, so the window stays
// valid for as long as it is held, through any number of later appends;
// its capacity equals its length, so appending to it copies. Holders must
// not assign to its elements.
func (r *Reader) NextBatch(p *sim.Proc, maxEntries int) []Entry {
	for r.pos >= r.log.LastSeq() {
		r.log.appended.Wait(p)
	}
	return r.TryNextBatch(maxEntries)
}

// TryNextBatch is NextBatch without blocking: nil when the reader is at the
// tail.
func (r *Reader) TryNextBatch(maxEntries int) []Entry {
	entries := r.log.entries
	from := int(r.pos - r.log.base)
	to := from
	for to < len(entries) {
		end := to + CommitLen(entries[to:])
		if to > from && end-from > maxEntries {
			break
		}
		to = end
	}
	if to == from {
		return nil
	}
	r.pos = r.log.base + uint64(to)
	return entries[from:to:to]
}

// CommitLen returns the number of entries in the commit entries starts with:
// up to and including its first entry not flagged More (all of them if none
// is unflagged).
func CommitLen(entries []Entry) int {
	for i := range entries {
		if !entries[i].More {
			return i + 1
		}
	}
	return len(entries)
}
