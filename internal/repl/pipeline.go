package repl

import (
	"fmt"
	"strings"

	"cloudrepl/internal/binlog"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// This file is the slave half of the replication pipeline: a K-worker SQL
// applier replacing the single SQL thread. A dispatcher reads the relay log
// in commit order and hands each entry to a worker together with the newest
// earlier entry it conflicts with (same table, or a barrier statement).
// Workers apply concurrently but block until their dependency has applied,
// so entries touching disjoint tables overlap — apply CPU no longer drains
// strictly one statement at a time behind client reads — while conflicting
// entries keep exact commit order. AppliedSeq advances as a contiguous
// low-water mark, so read-your-writes routing and lag probes stay
// conservative under out-of-order completion.
//
// Deadlock-freedom: dependencies always point at earlier sequences, the
// dispatcher assigns entries round-robin in sequence order, and each worker
// consumes its own queue FIFO. The earliest unapplied entry's dependency is
// therefore already applied, and every entry ahead of it in its worker's
// queue has a smaller sequence — already applied too — so that worker's
// next item is always runnable.

// applyItem is one relay entry plus its scheduling constraint.
type applyItem struct {
	e binlog.Entry
	// dep is the newest earlier sequence this entry conflicts with; 0
	// means the entry may apply as soon as a worker picks it up.
	dep uint64
}

// startParallelApplier replaces the single SQL thread with a dispatcher and
// `workers` applier threads for sl.
func (m *Master) startParallelApplier(sl *Slave, workers int) {
	// done wakes workers whose dependency may have just applied.
	done := sim.NewSignal(m.env).Named(sl.Srv.Name + "/apply-done")
	queues := make([]*sim.Queue[applyItem], workers)
	for w := range queues {
		queues[w] = sim.NewQueue[applyItem](m.env, fmt.Sprintf("%s/sql%d", sl.Srv.Name, w))
	}

	m.env.Go(sl.Srv.Name+"/sql-dispatch", func(p *sim.Proc) {
		// byTable maps "db.table" to the newest dispatched sequence writing
		// it; barrier is the newest dispatched barrier sequence (DDL, USE,
		// unparseable), which everything after it depends on; lastSeq is the
		// newest dispatched sequence (what a barrier depends on).
		byTable := make(map[string]uint64)
		var barrier, lastSeq uint64
		next := 0
		for {
			e, ok := sl.relay.Get(p)
			if !ok {
				// Relay closed and drained: let the workers finish what
				// they hold, then exit.
				for _, q := range queues {
					q.Close()
				}
				return
			}
			var dep uint64
			tables, exclusive := conflictTables(sl.Srv.Eng, e)
			if exclusive {
				// DDL and anything we cannot attribute to a table is a
				// full barrier: it runs after everything dispatched so
				// far, and everything after it runs after it.
				dep = lastSeq
				barrier = e.Seq
			} else {
				dep = barrier
				for _, tbl := range tables {
					if s := byTable[tbl]; s > dep {
						dep = s
					}
					byTable[tbl] = e.Seq
				}
			}
			lastSeq = e.Seq
			queues[next].Put(applyItem{e: e, dep: dep})
			next = (next + 1) % workers
		}
	})

	for w := 0; w < workers; w++ {
		q := queues[w]
		sess := sl.Srv.Session("")
		m.env.Go(q.Name(), func(p *sim.Proc) {
			for {
				it, ok := q.Get(p)
				if !ok {
					return
				}
				for !sl.applied.Has(it.dep) {
					done.Wait(p)
				}
				if !m.applyEntry(p, sl, sess, it.e) {
					return
				}
				done.Broadcast()
			}
		})
	}
}

// conflictTables extracts the tables a replicated statement writes,
// qualified by the entry's default database. The statement is the one apply
// will run — prepared from the entry's parameterised text when it carries
// one, parsed otherwise. Statements whose write set cannot be determined
// (DDL, USE, parse failures) report exclusive=true and are scheduled as full
// barriers.
func conflictTables(eng *sqlengine.Engine, e binlog.Entry) (tables []string, exclusive bool) {
	st, err := eng.PrepareLogged(e.LoggedWrite)
	if err != nil {
		return nil, true
	}
	ref, ok := st.Table()
	if !ok {
		return nil, true
	}
	return []string{tableKey(e.Database, ref)}, false
}

// tableKey canonicalizes a table reference to "db.table" (identifiers are
// case-insensitive in the engine).
func tableKey(defaultDB string, ref sqlengine.TableRef) string {
	db := ref.DB
	if db == "" {
		db = defaultDB
	}
	return strings.ToLower(db) + "." + strings.ToLower(ref.Name)
}
