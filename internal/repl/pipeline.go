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
// one commit at a time, in commit order, and hands each commit whole to one
// worker together with the newest earlier commit it conflicts with (one of
// its tables in common, or a barrier statement), computed once over the
// union of its entries' tables. Workers apply concurrently but block until
// their dependency has applied, so commits touching disjoint tables overlap —
// apply CPU no longer drains strictly one commit at a time behind client
// reads — while conflicting commits keep exact commit order. AppliedSeq
// advances as a contiguous low-water mark, so read-your-writes routing and
// lag probes stay conservative under out-of-order completion.
//
// Deadlock-freedom: dependencies always point at earlier commits, the
// dispatcher assigns commits round-robin in sequence order, and each worker
// consumes its own queue FIFO. The earliest unapplied commit's dependency is
// therefore already applied, and every commit ahead of it in its worker's
// queue is earlier — already applied too — so that worker's next item is
// always runnable.

// applyItem is one relay-log commit plus its scheduling constraint.
type applyItem struct {
	c []binlog.Entry
	// dep is the newest earlier sequence this commit conflicts with; 0
	// means the commit may apply as soon as a worker picks it up.
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
		// byTable maps "db.table" to the last sequence of the newest
		// dispatched commit writing it; barrier is the newest dispatched
		// barrier commit's (DDL, USE, unparseable), which everything after
		// it depends on; lastSeq is the newest dispatched sequence (what a
		// barrier depends on); tables is the commit's write set, reused.
		byTable := make(map[string]uint64)
		var barrier, lastSeq uint64
		var tables []string
		next := 0
		for {
			c, ok := sl.relay.Get(p)
			if !ok {
				// Relay closed and drained: let the workers finish what
				// they hold, then exit.
				for _, q := range queues {
					q.Close()
				}
				return
			}
			last := c[len(c)-1].Seq
			var exclusive bool
			tables, exclusive = conflictTables(sl.Srv.Eng, c, tables[:0])
			dep := barrier
			if exclusive {
				// DDL and anything we cannot attribute to a table is a
				// full barrier: it runs after everything dispatched so
				// far, and everything after it runs after it.
				dep = lastSeq
				barrier = last
			} else {
				for _, tbl := range tables {
					dep = max(dep, byTable[tbl])
				}
				for _, tbl := range tables {
					byTable[tbl] = last
				}
			}
			lastSeq = last
			queues[next].Put(applyItem{c: c, dep: dep})
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
				if !m.applyCommit(p, sl, sess, it.c) {
					return
				}
				done.Broadcast()
			}
		})
	}
}

// conflictTables appends to tables the tables a replicated commit writes,
// each qualified by the commit's default database. A statement is the one
// apply will run — prepared from the entry's parameterised text when it
// carries one, parsed otherwise. A commit with a statement whose write set
// cannot be determined (DDL, USE, parse failures) reports exclusive=true and
// is scheduled as a full barrier.
func conflictTables(eng *sqlengine.Engine, c []binlog.Entry, tables []string) (_ []string, exclusive bool) {
	for _, e := range c {
		st, err := eng.PrepareLogged(e.LoggedWrite)
		if err != nil {
			return tables, true
		}
		ref, ok := st.Table()
		if !ok {
			return tables, true
		}
		tables = append(tables, tableKey(e.Database, ref))
	}
	return tables, false
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
