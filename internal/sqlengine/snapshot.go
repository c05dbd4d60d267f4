package sqlengine

import (
	"fmt"
	"sort"
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
// mode, parse cache, plans, pins and sessions stay the restoring engine's own.
//
// An image shares the source's row images instead of copying them — an image
// is immutable once published (store.go) — so it is itself immutable, costs a
// header per row, and may be restored any number of times, on any goroutine.
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
	store   storeImage
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
func (e *Engine) Snapshot() *Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snapshotAtLocked(e.commitV)
}

// snapshotAtLocked captures the image as seen at commit version v: rows at v,
// everything else as it stands now. The engine lock (read or write) is held by
// the caller.
func (e *Engine) snapshotAtLocked(v uint64) *Snapshot {
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

// SnapshotHandle pins a commit version: chain GC keeps every row image that
// version can see until Close releases the pin. Materialize may run any
// number of times, arbitrarily later — even after further commits. A handle
// that is never Closed pins chain memory for the engine's lifetime;
// cloudrepl-lint's closecheck flags dropped handles.
type SnapshotHandle struct {
	eng    *Engine
	v      uint64
	closed bool
}

// Pin captures the current commit version and protects its images from
// chain GC until Close — the provisioning-friendly form of Snapshot: pin at
// the binlog position you record, copy rows later, then release.
func (e *Engine) Pin() *SnapshotHandle {
	e.mu.Lock()
	h := &SnapshotHandle{eng: e, v: e.commitV}
	e.pins = append(e.pins, h.v)
	e.mu.Unlock()
	return h
}

// Version returns the pinned commit version.
func (h *SnapshotHandle) Version() uint64 { return h.v }

// Materialize captures the engine's image with its rows as of the pinned
// version; statistics and progress are the engine's at the time of the call
// (the same instant as Pin, for a caller that wants the source as it was).
func (h *SnapshotHandle) Materialize() *Snapshot {
	h.eng.mu.RLock()
	defer h.eng.mu.RUnlock()
	return h.eng.snapshotAtLocked(h.v)
}

// Close releases the pin; closing twice is a no-op.
func (h *SnapshotHandle) Close() {
	if h.closed {
		return
	}
	h.closed = true
	e := h.eng
	e.mu.Lock()
	for i, v := range e.pins {
		if v == h.v {
			e.pins = append(e.pins[:i], e.pins[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
}

// Restore replaces the engine's entire catalog, statistics and progress with
// the snapshot's, and raises its commit version to the snapshot's. Each table
// is rebuilt in bulk (rowStore.restore) over the snapshot's own row images.
// Inline primary-key flags were normalized into the PK column list at capture
// time, so they are cleared on the restored definitions.
func (e *Engine) Restore(snap *Snapshot) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	dbs := make(map[string]*Database, len(snap.dbs))
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
		}
		dbs[lowerKey(sd.name)] = db
	}
	e.dbs = dbs
	e.commitV = max(e.commitV, snap.version)
	e.progress = snap.progress
	// The whole catalog was just replaced: cached plans hold pre-restore
	// *Table pointers and must never be reused.
	e.catalogEpoch++
	return nil
}

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
