// Package repl implements MySQL-style master-slave replication on top of
// the server, binlog and cloud packages.
//
// Per attached slave, the master runs a dump thread that tails the binlog
// and ships events over the (simulated) network in order. Each slave runs
// an I/O thread that appends received events to a relay log, and a single
// SQL applier thread that re-executes them against the slave's engine —
// competing with read traffic for the slave instance's CPU, which is the
// mechanism behind the paper's replication-delay blow-up near saturation.
//
// Three synchronization models are provided (§II of the paper): Async
// returns to the writer immediately after the master commit; SemiSync waits
// until at least one slave's I/O thread has the event in its relay log;
// Sync waits until every attached slave has applied the event.
package repl

import (
	"fmt"
	"slices"
	"time"

	"cloudrepl/internal/binlog"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// Mode selects the synchronization model.
type Mode uint8

// Synchronization models.
const (
	Async Mode = iota
	SemiSync
	Sync
)

func (m Mode) String() string {
	switch m {
	case Async:
		return "async"
	case SemiSync:
		return "semi-sync"
	default:
		return "sync"
	}
}

// PipelineConfig tunes the replication data path. The zero value is the
// legacy per-entry pipeline: no group commit, one network transit per
// binlog event, a single SQL applier thread per slave.
type PipelineConfig struct {
	// GroupCommitWindow enables master-side binlog group commit (see
	// server.DBServer.GroupCommitWindow); cluster wiring copies it onto
	// the master's server.
	GroupCommitWindow time.Duration
	// BatchMaxEntries caps how many binlog entries a dump thread coalesces
	// into one network transit (≤1 disables batching). The dump thread
	// never waits to fill a batch: it drains whatever backlog exists and
	// ships immediately, so an idle master keeps per-entry latency.
	BatchMaxEntries int
	// BatchMaxBytes additionally caps a batch by encoded wire size
	// (0 = no byte cap).
	BatchMaxBytes int
	// ApplyWorkers is the number of SQL applier threads per slave (≤1
	// keeps the single-threaded applier). Workers apply entries touching
	// disjoint tables concurrently; conflicting entries keep commit order
	// via table-level dependency tracking.
	ApplyWorkers int
}

// Master wraps a DBServer with replication state.
type Master struct {
	Srv  *server.DBServer
	Net  *cloud.Network
	Mode Mode
	// Epoch identifies this master's reign. Failover promotes a slave under
	// epoch+1, so session-consistency tokens minted as (epoch, seq) pairs
	// are never compared against a different master's sequence numbering.
	Epoch uint64
	// Pipeline tunes batching and parallel apply. Set it before Attach;
	// attached slaves keep the configuration they were wired with.
	Pipeline PipelineConfig

	// Tracer, when set, records "binlog" ship spans per dump-thread batch
	// and "apply" spans per applied entry, linked to the originating
	// write's span via the binlog sequence. Nil disables tracing.
	Tracer *obs.Tracer

	env    *sim.Env
	slaves []*Slave    // attached, in attach order
	ackCh  *sim.Signal // broadcast whenever any slave ack arrives
	// semiSyncTimeout bounds the wait for a receipt acknowledgement before
	// degrading to asynchronous (MySQL's rpl_semi_sync behaviour). Zero
	// means wait forever; only tests set it.
	semiSyncTimeout time.Duration

	// stats is where the master counts, Stats.Degraded included: semi-sync
	// degradation (MySQL rpl_semi_sync) is state as well as a statistic —
	// after a timeout the master stops waiting per-commit and counts the
	// commits it acknowledged without a slave receipt; it upgrades back once
	// a slave acknowledges the current end of the binlog. The two group-commit
	// fields stay zero here; Stats fills them from the server.
	stats Stats
}

// Stats snapshots the master's replication-path counters. The metric tag is
// the name obs.Flatten publishes a field under (after "repl.").
type Stats struct {
	// Degraded reports whether semi-sync is currently degraded to async
	// (always false in Async and Sync modes).
	Degraded bool `metric:"-"`
	// DegradedCommits counts commits acknowledged without waiting for a
	// slave receipt — MySQL's Rpl_semi_sync_master_no_tx.
	DegradedCommits uint64 `metric:"degraded_commits"`
	// Reupgrades counts async→semi-sync recoveries after a slave caught
	// back up to the end of the binlog.
	Reupgrades uint64 `metric:"reupgrades"`
	// BatchesShipped and EntriesShipped count dump-thread network transits
	// and the binlog entries they carried, summed over all slaves.
	BatchesShipped uint64 `metric:"batches_shipped"`
	EntriesShipped uint64 `metric:"entries_shipped"`
	// GroupCommits and GroupedWrites mirror the master server's group
	// commit counters (fsync groups formed and writes that joined one).
	GroupCommits  uint64 `metric:"group_commits"`
	GroupedWrites uint64 `metric:"grouped_writes"`
}

// SetTracer wires tr (which may be nil) into the master, its server and
// every attached slave's server, enabling end-to-end span collection.
func (m *Master) SetTracer(tr *obs.Tracer) {
	m.Tracer = tr
	m.Srv.Tracer = tr
	for _, sl := range m.Slaves() {
		sl.Srv.Tracer = tr
	}
}

// Stats returns a snapshot of the replication-path counters.
func (m *Master) Stats() Stats {
	st, srv := m.stats, m.Srv.Stats()
	st.GroupCommits, st.GroupedWrites = srv.GroupCommits, srv.GroupedWrites
	return st
}

// NewMaster creates a replication master around srv.
func NewMaster(env *sim.Env, srv *server.DBServer, net *cloud.Network, mode Mode) *Master {
	return &Master{
		Srv: srv, Net: net, Mode: mode,
		env: env, ackCh: sim.NewSignal(env).Named("semisync-ack(" + srv.Name + ")"),
	}
}

// Slaves returns the attached slaves.
func (m *Master) Slaves() []*Slave {
	return m.AppendSlaves(make([]*Slave, 0, len(m.slaves)))
}

// AppendSlaves appends the attached slaves to dst — Slaves for a caller that
// asks on every statement and brings its own buffer.
func (m *Master) AppendSlaves(dst []*Slave) []*Slave {
	return append(dst, m.slaves...)
}

// ack is a slave acknowledgement message.
type ack struct {
	slave   *Slave
	seq     uint64
	applied bool // false = relay-log receipt, true = applied
}

// Slave is a replica server with its replication threads.
type Slave struct {
	Srv *server.DBServer

	master *Master
	io     *sim.Queue[[]binlog.Entry] // network delivery (batches) → I/O thread
	relay  *sim.Queue[binlog.Entry]   // relay log → SQL thread(s)

	receivedSeq uint64 // newest seq in relay log
	// The entries that have run here, and those whose CPU is also paid for.
	executed, applied Executed
	applyErrs         int
	stopped           bool

	// Master-side acknowledgement high-water marks.
	masterAckReceipt uint64
	masterAckApplied uint64
}

// NewSlave wraps srv as a replica.
func NewSlave(env *sim.Env, srv *server.DBServer) *Slave {
	return &Slave{
		Srv:   srv,
		io:    sim.NewQueue[[]binlog.Entry](env, srv.Name+"/io"),
		relay: sim.NewQueue[binlog.Entry](env, srv.Name+"/relay"),
	}
}

// AppliedSeq returns the newest sequence such that it and everything before
// it has been applied, CPU paid for: the position tiers, lag and catch-up
// read. Entries after it may already have run (Executed has them).
func (s *Slave) AppliedSeq() uint64 { return s.applied.Low }

// Executed returns a copy of the set of entries that have run on this
// replica, paid for or not: what a re-attach must not ship to it again.
func (s *Slave) Executed() Executed { return s.executed.clone() }

// ApplyErrors returns the count of statements that failed to re-execute.
func (s *Slave) ApplyErrors() int { return s.applyErrs }

// RelayBacklog returns the number of received-but-unapplied events.
func (s *Slave) RelayBacklog() int { return s.relay.Len() }

// EventsBehindMaster reports replication lag as the master's binlog
// position minus this slave's applied position.
func (s *Slave) EventsBehindMaster() uint64 {
	if s.master == nil {
		return 0
	}
	last := s.master.Srv.Log.LastSeq()
	if last <= s.applied.Low {
		return 0
	}
	return last - s.applied.Low
}

// Staleness reports how far behind the master this slave's state is at
// virtual time now: the age of the oldest master commit the slave has not
// yet applied, or zero when fully caught up. It grows monotonically while
// the applier is starved and collapses as the backlog drains — the quantity
// the heartbeat methodology estimates, measured here directly on the
// virtual timeline (no clock offset), which makes it usable as a control
// signal by the elastic controller.
func (s *Slave) Staleness(now sim.Time) time.Duration {
	if s.master == nil {
		return 0
	}
	log := s.master.Srv.Log
	if log.LastSeq() <= s.applied.Low {
		return 0
	}
	d := now - log.CommittedAt(s.applied.Low+1)
	if d < 0 {
		return 0
	}
	return d
}

// Stop halts the slave's replication threads after their current event.
func (s *Slave) Stop() {
	s.stopped = true
	s.io.Close()
	s.relay.Close()
}

// Attach connects sl to the master, starting the master-side dump thread
// and the slave-side I/O and SQL threads. Replication begins after binlog
// position from.Low (Executed{Low: m.Srv.Log.LastSeq()} for a freshly
// synchronized replica), and the entries above it that from holds are never
// relayed: they already ran on sl. It fails, with nothing started, when the
// master's binlog no longer holds the entry after from.Low.
func (m *Master) Attach(sl *Slave, from Executed) error {
	reader, err := m.Srv.Log.NewReader(from.Low)
	if err != nil {
		return fmt.Errorf("repl: attach %s to %s: %w", sl.Srv.Name, m.Srv.Name, err)
	}
	sl.master = m
	sl.receivedSeq = from.Low
	sl.executed, sl.applied = from.clone(), from.clone()
	m.slaves = append(m.slaves, sl)

	pipe := cloud.NewPipe(m.Net, m.Srv.Inst.Place, sl.Srv.Inst.Place, sl.io)

	maxEntries := m.Pipeline.BatchMaxEntries
	maxBytes := m.Pipeline.BatchMaxBytes

	m.env.Go(m.Srv.Name+"/dump→"+sl.Srv.Name, func(p *sim.Proc) {
		for !sl.stopped && m.Srv.Up() {
			// Whatever backlog exists, up to the entry/byte caps, goes out
			// as one transit. The reader never waits for more: an idle
			// master ships a batch of one immediately, so unloaded latency
			// is the per-entry path's. The batch is a read-only window onto
			// the master's log, not a copy (binlog.Reader.NextBatch).
			batch := reader.NextBatch(p, maxEntries, maxBytes)
			// The master may have died or the slave detached while the
			// reader was blocked at the log tail.
			if sl.stopped || !m.Srv.Up() {
				return
			}
			// A ship span joins the trace of the write that committed the
			// batch's first entry (a mixed batch still records the other
			// writes' entries under its entries attribute).
			ssp := m.Tracer.StartLinked(p, "binlog", "ship", m.Tracer.SeqRef(m.Srv.Log, batch[0].Seq))
			ssp.SetAttr("slave", sl.Srv.Name)
			ssp.SetAttrInt("entries", int64(len(batch)))
			ssp.SetAttrInt("first_seq", int64(batch[0].Seq))
			m.Srv.DumpBatchWork(p, len(batch))
			m.stats.BatchesShipped++
			m.stats.EntriesShipped += uint64(len(batch))
			pipe.Send(batch)
			ssp.End(p)
		}
	})

	m.env.Go(sl.Srv.Name+"/io", func(p *sim.Proc) {
		for {
			batch, ok := sl.io.Get(p)
			if !ok {
				return
			}
			// A crashed replica parks its I/O thread until the instance
			// restarts (relay-log writes resume with recovery), instead of
			// charging CPU on a dead VM.
			sl.Srv.Inst.AwaitUp(p)
			if sl.stopped {
				return
			}
			// Batched shipping, slave half: drain whatever further batches
			// are already queued on the socket and relay them under one
			// amortized CPU charge. Without this, a read-loaded slave
			// ingests one batch per CPU-queue round trip and the relay log
			// can never build the backlog parallel apply needs.
			if maxEntries > 1 || maxBytes > 0 {
				bytes := 0
				for _, e := range batch {
					bytes += e.WireSize()
				}
				for len(batch) < maxEntries && (maxBytes <= 0 || bytes < maxBytes) {
					more, any := sl.io.TryGet()
					if !any {
						break
					}
					for _, e := range more {
						batch = append(batch, e)
						bytes += e.WireSize()
					}
				}
			}
			sl.Srv.RelayBatchWork(p, len(batch))
			prev := sl.receivedSeq
			for _, e := range batch {
				// Drop already-received entries (a reattach or retransmit
				// can replay the stream) so nothing enters the relay log —
				// and the appliers — twice; nor do the members of from.
				if e.Seq <= sl.receivedSeq {
					continue
				}
				sl.receivedSeq = e.Seq
				if !sl.executed.Has(e.Seq) {
					sl.relay.Put(e)
				}
			}
			if m.Mode == SemiSync && sl.receivedSeq > prev {
				// One receipt for the whole batch: acknowledging the last
				// sequence covers every earlier one.
				m.sendAck(ack{slave: sl, seq: sl.receivedSeq, applied: false})
			}
		}
	})

	if m.Pipeline.ApplyWorkers > 1 {
		m.startParallelApplier(sl, m.Pipeline.ApplyWorkers)
		return nil
	}
	sess := sl.Srv.Session("")
	m.env.Go(sl.Srv.Name+"/sql", func(p *sim.Proc) {
		for {
			e, ok := sl.relay.Get(p)
			if !ok || !m.applyEntry(p, sl, sess, e) {
				return
			}
		}
	})
	return nil
}

// sendAck sends a to the master. Acks ride the reverse path as datagrams;
// ordering between acks is irrelevant and a partitioned path simply loses
// them (the master's semi-sync timeout degrades the commit to async).
func (m *Master) sendAck(a ack) {
	cloud.Unicast(m.Net, a.slave.Srv.Inst.Place, m.Srv.Inst.Place, func() {
		m.deliverAck(a)
	})
}

// applyEntry is the body the single applier and the K-worker applier share;
// they differ only in how entries reach it. It parks across a crash
// (re-apply resumes from the relay log when the instance comes back: the
// database layer retains state), replays e under an "apply" span linked to
// the write that logged it, counts a failed replay, and raises the engine's
// commit version to e's sequence — replica MVCC stamps track master commit
// order, and the raise is a monotone max, so out-of-order workers still
// converge on it. e joins the executed set as it runs and the applied set,
// whose Low a Sync ack carries, once paid for. It reports false, with e not
// applied, once the slave has been stopped.
func (m *Master) applyEntry(p *sim.Proc, sl *Slave, sess *sqlengine.Session, e binlog.Entry) bool {
	sl.Srv.Inst.AwaitUp(p)
	if sl.stopped {
		return false
	}
	asp := m.Tracer.StartLinked(p, "apply", "apply", m.Tracer.SeqRef(m.Srv.Log, e.Seq))
	asp.SetAttr("slave", sl.Srv.Name)
	asp.SetAttrInt("seq", int64(e.Seq))
	// Apply replays before it first parks, so nothing can observe the
	// executed set without the statement.
	sl.executed.Add(e.Seq)
	if err := sl.Srv.Apply(p, sess, e); err != nil {
		sl.applyErrs++
		asp.SetAttr("error", "apply")
	}
	asp.End(p)
	sl.Srv.Eng.AdvanceVersion(e.Seq)
	sl.applied.Add(e.Seq)
	if m.Mode == Sync {
		m.sendAck(ack{slave: sl, seq: sl.applied.Low, applied: true})
	}
	return true
}

// Detach removes a slave from the replication topology, keeping the others
// in attach order, and stops its threads.
func (m *Master) Detach(sl *Slave) {
	if i := slices.Index(m.slaves, sl); i >= 0 {
		m.slaves = slices.Delete(m.slaves, i, i+1)
	}
	sl.Stop()
	m.ackCh.Broadcast() // unblock sync waiters that counted this slave
}

// deliverAck raises the slave's masterAckReceipt / masterAckApplied
// acknowledgement high-water marks on the master side.
func (m *Master) deliverAck(a ack) {
	if a.applied {
		if a.seq > a.slave.masterAckApplied {
			a.slave.masterAckApplied = a.seq
		}
	} else {
		if a.seq > a.slave.masterAckReceipt {
			a.slave.masterAckReceipt = a.seq
		}
	}
	// MySQL rpl_semi_sync recovery: degraded semi-sync upgrades back once
	// a slave acknowledges the current end of the binlog — not merely the
	// old position that timed out — so commits that raced ahead while
	// degraded are covered by the time waiting resumes. A stopped slave's
	// late ack — one already in flight when it was detached — does not.
	if m.stats.Degraded && !a.slave.stopped && a.seq >= m.Srv.Log.LastSeq() {
		m.stats.Degraded = false
		m.stats.Reupgrades++
	}
	m.ackCh.Broadcast()
}

// WaitCommitted blocks the calling process until the synchronization model
// considers binlog position seq committed: immediately for Async, first
// relay-log receipt for SemiSync, all slaves applied for Sync. It reports
// whether the wait fully satisfied the model. A semi-sync timeout degrades
// the master to async — this and every later commit return false without
// waiting (counted in Stats.DegradedCommits) until a slave catches back up
// to the end of the binlog and deliverAck re-upgrades the mode.
func (m *Master) WaitCommitted(p *sim.Proc, seq uint64) bool {
	switch m.Mode {
	case Async:
		return true
	case SemiSync:
		// While degraded, commits return immediately as unacknowledged
		// instead of re-paying the timeout each — MySQL's master stops
		// waiting after rpl_semi_sync_master_timeout fires and resumes
		// only via the deliverAck re-upgrade.
		if m.stats.Degraded {
			m.stats.DegradedCommits++
			return false
		}
		deadline := sim.MaxTime
		if m.semiSyncTimeout > 0 {
			deadline = p.Now() + m.semiSyncTimeout
		}
		for {
			for _, sl := range m.slaves {
				if sl.masterAckReceipt >= seq {
					return true
				}
			}
			if len(m.slaves) == 0 {
				m.stats.Degraded = true
				m.stats.DegradedCommits++
				return false
			}
			if m.semiSyncTimeout > 0 {
				remain := deadline - p.Now()
				if remain <= 0 || !m.ackCh.WaitTimeout(p, remain) {
					m.stats.Degraded = true
					m.stats.DegradedCommits++
					return false
				}
			} else {
				m.ackCh.Wait(p)
			}
		}
	default: // Sync
		for {
			all := true
			for _, sl := range m.slaves {
				if sl.masterAckApplied < seq {
					all = false
					break
				}
			}
			if all {
				return true
			}
			m.ackCh.Wait(p)
		}
	}
}
