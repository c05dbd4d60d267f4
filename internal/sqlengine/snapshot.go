package sqlengine

import (
	"fmt"
	"sort"
)

// Snapshot is a consistent deep copy of an engine's entire catalog — the
// mysqldump/xtrabackup equivalent used to provision new replicas from a
// running master instead of replaying history from the beginning. It is
// taken at a single commit version: row images resolve through the MVCC
// chains, so the capture is consistent without quiescing the engine.
type Snapshot struct {
	version uint64
	dbs     []snapshotDB
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
	rows    [][]Value
}

// NumRows returns the total row count across all tables.
func (s *Snapshot) NumRows() int {
	n := 0
	for _, d := range s.dbs {
		for _, t := range d.tables {
			n += len(t.rows)
		}
	}
	return n
}

// Snapshot captures every database, table definition and row as of the
// engine's current commit version — a non-quiescent versioned read: images
// resolve through the MVCC chains, so provisional writes of open
// transactions are excluded instead of requiring the engine to pause.
// Databases and tables are captured in sorted-name order so that two
// snapshots of identical catalogs are byte-identical — replica provisioning
// cost and restore order must not depend on Go's per-run map hashing.
func (e *Engine) Snapshot() *Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snapshotAtLocked(e.commitV)
}

// snapshotAtLocked captures the catalog as seen at commit version v. The
// engine lock (read or write) is held by the caller.
func (e *Engine) snapshotAtLocked(v uint64) *Snapshot {
	snap := &Snapshot{version: v}
	for _, dbKey := range sortedKeys(e.dbs) {
		db := e.dbs[dbKey]
		sd := snapshotDB{name: db.Name}
		for _, tblKey := range sortedKeys(db.tables) {
			tbl := db.tables[tblKey]
			st := snapshotTable{
				name:    tbl.Name,
				columns: append([]ColumnDef(nil), tbl.Columns...),
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
			st.rows = tbl.store.images(readView{at: v, chains: true}, nil)
			flat := make([]Value, 0, len(st.rows)*len(tbl.Columns))
			for i, img := range st.rows {
				flat = append(flat, img...)
				st.rows[i] = flat[len(flat)-len(img) : len(flat) : len(flat)]
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

// Materialize deep-copies the catalog as of the pinned version.
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

// Restore replaces the engine's entire catalog with the snapshot's
// contents. Inline primary-key flags were normalized into the PK column
// list at capture time, so they are cleared on the restored definitions.
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
			if err != nil {
				return fmt.Errorf("sqlengine: restore %s.%s: %w", sd.name, st.name, err)
			}
			for _, row := range st.rows {
				if _, err := tbl.Insert(tbl.store.image(row)); err != nil {
					return fmt.Errorf("sqlengine: restore %s.%s row: %w", sd.name, st.name, err)
				}
			}
			db.tables[lowerKey(st.name)] = tbl
		}
		dbs[lowerKey(sd.name)] = db
	}
	e.dbs = dbs
	if snap.version > e.commitV {
		e.commitV = snap.version
	}
	// The whole catalog was just replaced: cached plans hold pre-restore
	// *Table pointers and must never be reused.
	e.bumpStatsEpochLocked()
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
