package sqlengine

// This file is the MVCC core: rows carry (begin, end) commit-version stamps
// and a newest-first chain of superseded images (store.go), stamped by the
// per-engine commit counter. Reads resolve visibility against a read version —
// the latest commit for autocommit statements, the BEGIN-time version for open
// transactions (snapshot isolation) — and Engine.Snapshot() is a
// non-quiescent versioned read over the same chains.
//
// Version stamps are assigned at commit time: each write statement appends
// its effect — the rows it inserted, rewrote or buried — to its session's row
// log, and commit stamps them all with commitV+1 before publishing it, while
// rollback undoes them newest first, physically restoring heap and index
// state. Until then the affected images hold provisionalVersion and the
// owning session in txn, which routes every other reader to the chain (or,
// for a pending DELETE of a committed image, to the still-visible image).

// gcEvery is how many finalized commits pass between version-chain GC
// sweeps. Sweeps are cheap (pointer walks), but per-commit sweeping would
// dominate small transactions.
const gcEvery = 64

// readViewFor returns the session's read version and whether SELECT must
// resolve visibility through version chains. The fast path — scanning the
// live heap and its indexes as-is — is exact when the reader is at the
// engine's latest commit version and every outstanding provisional write
// belongs to the reader itself; that covers the whole autocommit workload,
// so MVCC costs nothing on the hot read path.
func (e *Engine) readViewFor(s *Session) readView {
	at := e.commitV
	if s.inTxn {
		at = s.readV
	}
	return readView{s: s, at: at, chains: at != e.commitV || e.provisional != s.provisional}
}

// writer returns s as a row's provisional owner: nil in autocommit, where the
// statement is stamped before anyone else can look.
func (s *Session) writer() *Session {
	if s.inTxn {
		return s
	}
	return nil
}

// undoTo takes back the changes logged from lo on, newest first — a failing
// statement's (a multi-row write is atomic) or, from 0, the transaction's.
func (s *Session) undoTo(lo int) {
	for i := len(s.log) - 1; i >= lo; i-- {
		c := s.log[i]
		c.tbl.store.undo(c)
		if c.kind == effUpdate {
			c.tbl.stats.observeInsert(c.old)
		}
	}
	clear(s.log[lo:])
	s.log = s.log[:lo]
}

// dropEffects truncates the session's row log for reuse and takes its writes
// out of the engine's provisional count.
func (s *Session) dropEffects() {
	clear(s.log)
	s.log = s.log[:0]
	s.eng.provisional -= s.provisional
	s.provisional = 0
}

// finalizeStamps assigns the next commit version to every provisional
// mark this session holds and publishes it as the engine's latest; commit
// calls it, whether the transaction is an autocommit write's or explicit.
func (s *Session) finalizeStamps() {
	if len(s.log) > 0 {
		cv := s.eng.commitV + 1
		for _, c := range s.log {
			c.tbl.store.stamp(c, cv)
		}
		s.eng.commitV = cv
		if s.eng.sinceGC++; s.eng.sinceGC >= gcEvery {
			s.eng.sinceGC = 0
			s.eng.gc()
		}
	}
	s.dropEffects()
}

// dropTxn removes s from the engine's open-transaction set.
func (e *Engine) dropTxn(s *Session) {
	for i, t := range e.txns {
		if t == s {
			e.txns = append(e.txns[:i], e.txns[i+1:]...)
			return
		}
	}
}

// gc prunes chain versions and graveyard rows invisible to every
// active reader. Open transactions hold the horizon down at their BEGIN-time
// read version; with none, everything below the latest version goes.
func (e *Engine) gc() {
	minActive := e.commitV
	for _, t := range e.txns {
		minActive = min(minActive, t.readV)
	}
	e.gcRuns++
	for _, t := range e.swept {
		nv, nr := t.store.prune(minActive)
		e.gcVersions += uint64(nv)
		e.gcRows += uint64(nr)
	}
}

// relist lists every table in (database, table) name order into
// e.swept, after CREATE or DROP TABLE.
func (e *Engine) relist() {
	e.swept = nil
	for _, dbKey := range sortedKeys(e.dbs) {
		db := e.dbs[dbKey]
		for _, tblKey := range sortedKeys(db.tables) {
			e.swept = append(e.swept, db.tables[tblKey])
		}
	}
}

// CommitVersion returns the engine's current commit version.
func (e *Engine) CommitVersion() uint64 { return e.commitV }

// AdvanceVersion raises the commit version to at least v. The replication
// apply path calls it with each applied binlog sequence, so replica version
// stamps track the master's commit order — including across failover, where
// the promoted slave keeps counting from the old master's sequence.
func (e *Engine) AdvanceVersion(v uint64) {
	e.commitV = max(e.commitV, v)
}

// GCStats reports version-chain garbage collection counters: completed
// sweeps, pruned chain versions, and reclaimed deleted rows.
func (e *Engine) GCStats() (runs, versions, rows uint64) {
	return e.gcRuns, e.gcVersions, e.gcRows
}
