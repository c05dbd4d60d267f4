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

type snapshotDB struct {
	name, key string // key: the catalog's lower-case name
	tables    []snapshotTable
}

// snapshotTable is one table of an image: its schema as its source resolved it,
// its statistics and its rows. The schema is the columns (inline primary-key
// flags cleared: the key is pkCols), the position of each column by
// lower-case name, the primary key's positions and the secondary indexes'
// names, positions and uniqueness, with no buckets. A table's schema never
// changes once it is created (the engine has no ALTER or CREATE INDEX), so
// the image shares it with its source, and every table restored from the
// image shares it too: all of them only read it.
type snapshotTable struct {
	name, key string // key: the catalog's lower-case name
	columns   []ColumnDef
	colPos    map[string]int
	pkCols    []int
	indexes   []Index
	stats     tableStats
	store     *storeImage
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
		sd := snapshotDB{name: db.Name, key: dbKey}
		for _, tblKey := range sortedKeys(db.tables) {
			tbl := db.tables[tblKey]
			st := snapshotTable{
				name:    tbl.Name,
				key:     tblKey,
				columns: tbl.Columns,
				colPos:  tbl.colPos,
				pkCols:  tbl.pkCols,
				indexes: make([]Index, len(tbl.indexes)),
				stats:   tbl.stats.clone(),
				store:   tbl.store.capture(readView{at: v, chains: true}),
			}
			if slices.ContainsFunc(st.columns, func(c ColumnDef) bool { return c.PrimaryKey }) {
				st.columns = slices.Clone(st.columns)
				for i := range st.columns {
					st.columns[i].PrimaryKey = false
				}
			}
			for i, ix := range tbl.indexes {
				st.indexes[i] = Index{Name: ix.Name, Cols: ix.Cols, Unique: ix.Unique}
			}
			sd.tables = append(sd.tables, st)
		}
		snap.dbs = append(snap.dbs, sd)
	}
	return snap
}

// Restore replaces the engine's entire catalog, statistics and progress with
// the snapshot's, and raises its commit version to the snapshot's. Each table
// shares the snapshot's schema, and its rows and indexes (rowStore.restore)
// until something writes it; its Index objects and statistics are its own.
// They are carved, as the tables themselves are, from one array of each kind
// for the whole snapshot, each table's share capped so that growing one
// table's list reallocates it instead of writing into the next table's.
func (e *Engine) Restore(snap *Snapshot) error {
	var nTables, nIndexes, nCols int
	for _, sd := range snap.dbs {
		nTables += len(sd.tables)
		for _, st := range sd.tables {
			nIndexes += min(len(st.pkCols), 1) + len(st.indexes)
			nCols += len(st.stats.cols)
		}
	}
	tables := make([]Table, nTables)
	indexes := make([]Index, nIndexes)
	keyed := make([]*Index, nIndexes)
	cols := make([]colStats, nCols)
	swept := make([]*Table, 0, nTables) // a snapshot lists databases and tables in key order
	dbs := make(map[string]*Database, len(snap.dbs))
	for _, sd := range snap.dbs {
		db := &Database{Name: sd.name, tables: make(map[string]*Table, len(sd.tables))}
		for _, st := range sd.tables {
			tbl := &tables[len(swept)] // zero: set field by field, not copied whole
			tbl.Name, tbl.Columns, tbl.colPos, tbl.pkCols, tbl.stats = st.name, st.columns, st.colPos, st.pkCols, st.stats
			c := len(st.stats.cols)
			tbl.stats.cols, cols = cols[:c:c], cols[c:]
			copy(tbl.stats.cols, st.stats.cols)
			pk := min(len(st.pkCols), 1) // the primary key's Index leads the list
			n := pk + len(st.indexes)
			ixs, ks := indexes[:n:n], keyed[:n:n]
			indexes, keyed = indexes[n:], keyed[n:]
			if pk == 1 {
				ixs[0] = Index{Name: "PRIMARY", Cols: st.pkCols, Unique: true}
			}
			copy(ixs[pk:], st.indexes)
			for i := range ixs {
				ks[i] = &ixs[i]
			}
			tbl.indexes = ks[pk:]
			tbl.store.init(tbl, ks)
			if err := tbl.store.restore(st.store); err != nil {
				return fmt.Errorf("sqlengine: restore %s.%s: %w", sd.name, st.name, err)
			}
			db.tables[st.key] = tbl
			swept = append(swept, tbl)
		}
		dbs[sd.key] = db
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
