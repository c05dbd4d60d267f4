package sqlengine

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
)

// Snapshot is an engine's image: everything of an engine that another engine
// can start from — the mysqldump/xtrabackup equivalent a replica is provisioned
// from instead of replaying history from the beginning. It holds the catalog,
// every table's rows as of one commit version in scan order with their begin
// stamps, the tables' statistics, that commit version, and the engine's
// progress (GC phase and the GCStats/PlanStats counters), so an engine restored
// from it is indistinguishable from the source at that version to any reader,
// to any statement stream run on both afterwards and to CommitVersion, GCStats
// and PlanStats. Rows resolve through the MVCC chains, so the capture is
// consistent without quiescing the engine; versions older than the image's are
// not in it. Nothing node-local is: clock, binlog format, commit hook, planner
// mode, parse cache, plans and sessions stay the restoring engine's own.
//
// An image shares the source's row images instead of copying them — an image
// is immutable once published (store.go) — so it is itself immutable, costs a
// header per row, and may be restored any number of times, on any goroutine.
// Its first restore builds each table's index tables and a read-only view over
// them, once; a restored table reads that view until its first write copies it
// (rowStore.own). A table restored and not written since captures as the image
// it was restored from, so a Snapshot of a freshly restored engine shares its
// source's tables, built indexes included.
type Snapshot struct {
	version uint64
	progress
	dbs []snapshotDB
}

// Version returns the commit version the snapshot was captured at.
func (s *Snapshot) Version() uint64 { return s.version }

type snapshotDB struct {
	name   string
	tables []snapshotTable
}

type snapshotTable struct {
	name    string
	columns []ColumnDef
	pkCols  []string
	indexes []IndexDef
	stats   tableStats
	store   *storeImage
}

// NumRows returns the total row count across all tables.
func (s *Snapshot) NumRows() int {
	n := 0
	for _, d := range s.dbs {
		for _, t := range d.tables {
			n += len(t.store.rows)
		}
	}
	return n
}

// Snapshot captures the engine's image as of its current commit version — a
// non-quiescent versioned read: images resolve through the MVCC chains, so
// provisional writes of open transactions are excluded instead of requiring
// the engine to pause. Databases and tables are captured in sorted-name order
// so that two snapshots of identical catalogs are identical — replica
// provisioning cost and restore order must not depend on Go's per-run map
// hashing.
func (e *Engine) Snapshot() *Snapshot { return e.snapshotAt(e.commitV) }

// Digest returns a canonical digest of every table the engine holds as a
// reader at its latest commit sees it, one line per table in database and
// table name order: "db.table <n> rows <hash>", the hash an FNV-64a over the
// table's rows in primary-key order (then in the order of all their columns),
// each value as its SQL literal. Two engines hold the same rows exactly when
// their digests are equal, whatever order their writes left the rows in. A
// table named in exclude, as "table" or "db.table", is left out.
func (e *Engine) Digest(exclude ...string) string {
	var b strings.Builder
	var rows [][]Value
	var text []byte
	for _, dbKey := range sortedKeys(e.dbs) {
		for _, tblKey := range sortedKeys(e.dbs[dbKey].tables) {
			if slices.ContainsFunc(exclude, func(x string) bool {
				return strings.EqualFold(x, tblKey) || strings.EqualFold(x, dbKey+"."+tblKey)
			}) {
				continue
			}
			tbl := e.dbs[dbKey].tables[tblKey]
			rows = tbl.store.images(readView{at: e.commitV, chains: true}, rows[:0])
			slices.SortFunc(rows, func(x, y []Value) int {
				for _, c := range tbl.pkCols {
					if d := Compare(x[c], y[c]); d != 0 {
						return d
					}
				}
				return slices.CompareFunc(x, y, Compare)
			})
			h := fnv.New64a()
			for _, r := range rows {
				text = text[:0]
				for _, v := range r {
					text = append(v.appendSQL(text), 0x1f)
				}
				_, _ = h.Write(append(text, '\n')) // a hash.Hash never fails a write
			}
			fmt.Fprintf(&b, "%s.%s %d rows %016x\n", dbKey, tblKey, len(rows), h.Sum64())
		}
	}
	return b.String()
}

// snapshotAt captures the image as seen at commit version v: rows at v,
// everything else as it stands now.
func (e *Engine) snapshotAt(v uint64) *Snapshot {
	snap := &Snapshot{version: v, progress: e.progress}
	for _, dbKey := range sortedKeys(e.dbs) {
		db := e.dbs[dbKey]
		sd := snapshotDB{name: db.Name}
		for _, tblKey := range sortedKeys(db.tables) {
			tbl := db.tables[tblKey]
			st := snapshotTable{
				name:    tbl.Name,
				columns: append([]ColumnDef(nil), tbl.Columns...),
				stats:   tbl.stats.clone(),
				store:   tbl.store.capture(readView{at: v, chains: true}),
			}
			for _, pos := range tbl.pkCols {
				st.pkCols = append(st.pkCols, tbl.Columns[pos].Name)
			}
			for _, ix := range tbl.indexes {
				def := IndexDef{Name: ix.Name, Unique: ix.Unique}
				for _, pos := range ix.Cols {
					def.Columns = append(def.Columns, tbl.Columns[pos].Name)
				}
				st.indexes = append(st.indexes, def)
			}
			sd.tables = append(sd.tables, st)
		}
		snap.dbs = append(snap.dbs, sd)
	}
	return snap
}

// Restore replaces the engine's entire catalog, statistics and progress with
// the snapshot's, and raises its commit version to the snapshot's. Each table
// shares the snapshot's rows and indexes (rowStore.restore) until something
// writes it.
// Inline primary-key flags were normalized into the PK column list at capture
// time, so they are cleared on the restored definitions.
func (e *Engine) Restore(snap *Snapshot) error {
	dbs := make(map[string]*Database, len(snap.dbs))
	n := 0
	for _, sd := range snap.dbs {
		n += len(sd.tables)
	}
	swept := make([]*Table, 0, n) // a snapshot lists databases and tables in key order
	for _, sd := range snap.dbs {
		db := &Database{Name: sd.name, tables: make(map[string]*Table, len(sd.tables))}
		for _, st := range sd.tables {
			cols := append([]ColumnDef(nil), st.columns...)
			for i := range cols {
				cols[i].PrimaryKey = false // carried via pkCols instead
			}
			tbl, err := NewTable(st.name, cols, st.pkCols, st.indexes)
			if err == nil {
				err = tbl.store.restore(st.store)
			}
			if err != nil {
				return fmt.Errorf("sqlengine: restore %s.%s: %w", sd.name, st.name, err)
			}
			tbl.stats = st.stats.clone()
			db.tables[lowerKey(st.name)] = tbl
			swept = append(swept, tbl)
		}
		dbs[lowerKey(sd.name)] = db
	}
	e.dbs, e.swept = dbs, swept
	e.commitV = max(e.commitV, snap.version)
	e.progress = snap.progress
	// The whole catalog was just replaced: cached plans hold pre-restore
	// *Table pointers and must never be reused.
	e.catalogEpoch++
	return nil
}

// Empty reports whether the engine has no database: nothing that a Restore
// would replace and lose.
func (e *Engine) Empty() bool { return len(e.dbs) == 0 }

// sortedKeys returns m's keys in sorted order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func lowerKey(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
