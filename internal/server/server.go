// Package server binds a sqlengine to a cloud instance: statements execute
// logically instantly but charge virtual CPU time derived from their
// execution statistics, queueing FIFO on the instance's vCPUs. Committed
// writes are appended to the server's binlog stamped with the instance's
// local (drifting) clock — the master side of statement-based replication.
package server

import (
	"errors"
	"time"

	"cloudrepl/internal/binlog"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// CostModel converts execution statistics into nominal CPU time on the
// reference core. Defaults are calibrated so that the Cloudstone workload
// saturates replicas the way the paper's m1.small instances did (§IV-A).
type CostModel struct {
	// ReadBase is the fixed cost of any SELECT.
	ReadBase time.Duration
	// PerRowExamined is added for every row visited by scans and lookups.
	PerRowExamined time.Duration
	// WriteBase is the fixed cost of any INSERT/UPDATE/DELETE on a master.
	WriteBase time.Duration
	// PerRowAffected is added for every row mutated.
	PerRowAffected time.Duration
	// DDLBase is the fixed cost of DDL statements.
	DDLBase time.Duration
	// ApplyFactor scales a write's cost when re-executed by a slave's SQL
	// thread (no client/connection handling, no binlog fsync).
	ApplyFactor float64
	// DumpPerEvent is the master CPU spent by each dump thread per binlog
	// event shipped to a slave.
	DumpPerEvent time.Duration
	// RelayPerEvent is the slave CPU spent by the I/O thread per event
	// written to the relay log.
	RelayPerEvent time.Duration

	// CommitFsync is the binlog write+fsync portion of WriteBase. It only
	// matters when group commit is enabled (DBServer.GroupCommitWindow > 0):
	// the fsync is then paid once per commit *group* as serialized disk
	// time instead of once per statement as CPU, which is what lifts the
	// per-write master ceiling.
	CommitFsync time.Duration
	// DumpPerEntryBatched is the marginal master CPU per additional binlog
	// event in a batched dump transit (the first event of every batch pays
	// the full DumpPerEvent). Zero falls back to DumpPerEvent, i.e. no
	// batching advantage.
	DumpPerEntryBatched time.Duration
	// RelayPerEntryBatched is the slave-side equivalent for batched relay
	// writes.
	RelayPerEntryBatched time.Duration
}

// DefaultCostModel returns the calibrated model (see DESIGN.md §5).
func DefaultCostModel() CostModel {
	return CostModel{
		ReadBase:       95 * time.Millisecond,
		PerRowExamined: 150 * time.Microsecond,
		WriteBase:      82 * time.Millisecond,
		PerRowAffected: 2 * time.Millisecond,
		DDLBase:        20 * time.Millisecond,
		ApplyFactor:    0.5,
		DumpPerEvent:   1200 * time.Microsecond,
		RelayPerEvent:  300 * time.Microsecond,

		CommitFsync:          30 * time.Millisecond,
		DumpPerEntryBatched:  150 * time.Microsecond,
		RelayPerEntryBatched: 60 * time.Microsecond,
	}
}

// StatementCost returns the nominal CPU time for a statement with the given
// stats executed in the given role.
func (c CostModel) StatementCost(stats sqlengine.ExecStats, applied bool) time.Duration {
	var d time.Duration
	switch stats.Class {
	case sqlengine.ClassRead:
		d = c.ReadBase + time.Duration(stats.RowsExamined)*c.PerRowExamined
	case sqlengine.ClassWrite:
		d = c.WriteBase +
			time.Duration(stats.RowsExamined)*c.PerRowExamined +
			time.Duration(stats.RowsAffected)*c.PerRowAffected
	case sqlengine.ClassDDL:
		d = c.DDLBase
	default:
		return 0
	}
	if applied {
		d = time.Duration(float64(d) * c.ApplyFactor)
	}
	return d
}

// ErrServerDown is returned when a statement reaches a server whose
// instance has been terminated (e.g. a race between scale-in and an
// in-flight request).
var ErrServerDown = errors.New("server: instance is down")

// Stats aggregates the server's statement counters.
type Stats struct {
	Reads   uint64
	Writes  uint64
	Applied uint64
	DDL     uint64

	// GroupCommits counts binlog fsync groups; GroupedWrites counts the
	// autocommit writes that committed through them. Their ratio is the
	// achieved amortization (1.0 = no grouping happened).
	GroupCommits  uint64
	GroupedWrites uint64
	MaxGroupSize  int
}

// DBServer is a database process on a cloud instance.
type DBServer struct {
	Name string
	Inst *cloud.Instance
	Eng  *sqlengine.Engine
	Log  *binlog.Log
	Cost CostModel
	// PriorityApply schedules replication-apply CPU at high priority so
	// the SQL thread never starves behind client reads (an operator
	// mitigation for the staleness blow-up; ablation A-PRIO).
	PriorityApply bool
	// GroupCommitWindow enables binlog group commit: an autocommit write
	// finishing its execution waits up to this long for concurrent writes
	// to pile on, then the whole group pays one CommitFsync of serialized
	// binlog-disk time instead of one per statement. Zero (the default)
	// keeps the legacy per-commit fsync-as-CPU costing. Statements inside
	// explicit transactions always take the legacy path — their commit
	// point is the COMMIT statement, not the write itself.
	GroupCommitWindow time.Duration

	// Tracer, when set, records a "server" span per executed statement
	// (registering committed binlog sequences for cross-process linking)
	// and a "binlog" group-commit span per fsync group. Nil disables
	// tracing.
	Tracer *obs.Tracer

	env   *sim.Env
	stats Stats

	// Group-commit state: one open group at a time; a new leader may open
	// the next group while the previous one is still in its fsync, with
	// binlogDisk serializing the actual fsyncs.
	gcSig      *sim.Signal
	gcOpen     bool
	gcSize     int
	binlogDisk *sim.Resource
}

// New creates a database server on inst with statement-based logging. Time
// builtins read the instance's local clock; committed writes are appended
// to the binlog stamped with that same clock.
func New(env *sim.Env, name string, inst *cloud.Instance, cost CostModel) *DBServer {
	s := &DBServer{
		Name: name,
		Inst: inst,
		Eng:  sqlengine.NewEngine(),
		Log:  binlog.New(env),
		Cost: cost,
		env:  env,
	}
	s.Eng.NowMicros = func() int64 { return inst.Clock.NowMicros() }
	// s.Eng.Format stays FormatStatement unless SetRowFormat is called.
	s.Eng.OnCommit = func(db string, writes []sqlengine.LoggedWrite) {
		ts := inst.Clock.NowMicros()
		for _, w := range writes {
			s.Log.AppendWrite(db, w, ts)
		}
	}
	return s
}

// Restore makes the server a copy of the one img and pos were taken from at
// one instant: its engine restored from img and its binlog started over,
// empty, at pos — the source's binlog position then. From here on a statement
// this server applies or commits takes the sequence number it has on the
// source, so either server's log can stand in for the other's (failover).
// Readers of the log it had are not carried over.
func (s *DBServer) Restore(img *sqlengine.Snapshot, pos uint64) error {
	if err := s.Eng.Restore(img); err != nil {
		return err
	}
	s.Log = binlog.NewAt(s.env, pos)
	return nil
}

// SetRowFormat switches the server's binlog to row-based logging (MySQL
// RBR): committed writes replicate as literal per-row images instead of
// the original statement text, so time builtins are fixed at the master
// rather than re-evaluated on each replica.
func (s *DBServer) SetRowFormat() { s.Eng.Format = sqlengine.FormatRow }

// Up reports whether the backing instance is running.
func (s *DBServer) Up() bool { return s.Inst.Up() }

// Stats returns a snapshot of the statement counters.
func (s *DBServer) Stats() Stats { return s.stats }

// Session opens an engine session with the given default database.
func (s *DBServer) Session(db string) *sqlengine.Session { return s.Eng.NewSession(db) }

// Exec executes a statement on behalf of a client session, charging the
// instance's CPU according to the cost model. It must be called from a
// simulation process.
func (s *DBServer) Exec(p *sim.Proc, sess *sqlengine.Session, sql string, args ...sqlengine.Value) (*sqlengine.Result, error) {
	return s.ExecInto(p, sess, nil, sql, args...)
}

// ExecInto is Exec answering in the caller's Reply (sqlengine.Statement.RunInto)
// — the proxy's, which has its own header to put beside the engine's two.
func (s *DBServer) ExecInto(p *sim.Proc, sess *sqlengine.Session, out *sqlengine.Reply, sql string, args ...sqlengine.Value) (*sqlengine.Result, error) {
	if !s.Up() {
		return nil, ErrServerDown
	}
	sp, before := s.startExec(p)
	// Prepare returns the engine's one Statement for this text — parsed,
	// normalized and holding its plan — so a repeated statement pays for
	// neither a handle nor a plan lookup key.
	var res *sqlengine.Result
	stmt, err := s.Eng.Prepare(sql)
	if err == nil {
		res, err = stmt.RunInto(sess, out, args...)
	}
	return s.finishExec(p, sess, sp, before, res, err)
}

// ExecLogged executes a logged write as a client statement — a shard split
// catching its target up from the source's binlog: full client cost, this
// server's own binlog and counters, unlike Apply's replica path. The Result is
// the session's own (sqlengine.Session.Replay): read it before sess runs again.
func (s *DBServer) ExecLogged(p *sim.Proc, sess *sqlengine.Session, e binlog.Entry) (*sqlengine.Result, error) {
	if !s.Up() {
		return nil, ErrServerDown
	}
	sp, before := s.startExec(p)
	res, err := sess.Replay(e.LoggedWrite)
	return s.finishExec(p, sess, sp, before, res, err)
}

// startExec opens a client statement's server span and notes the binlog
// position it starts from.
func (s *DBServer) startExec(p *sim.Proc) (*obs.Span, uint64) {
	sp := s.Tracer.StartSpan(p, "server", "exec")
	sp.SetAttr("server", s.Name)
	return sp, s.Log.LastSeq()
}

// finishExec accounts for an executed client statement: counters, trace
// links to the binlog entries it committed, and the CPU it costs.
func (s *DBServer) finishExec(p *sim.Proc, sess *sqlengine.Session, sp *obs.Span, before uint64,
	res *sqlengine.Result, err error) (*sqlengine.Result, error) {
	if err != nil {
		sp.SetAttr("error", "sql")
		sp.End(p)
		return nil, err
	}
	switch res.Stats.Class {
	case sqlengine.ClassRead:
		s.stats.Reads++
	case sqlengine.ClassWrite:
		s.stats.Writes++
	case sqlengine.ClassDDL:
		s.stats.DDL++
	}
	if s.Tracer != nil && res.Stats.Class != sqlengine.ClassRead {
		// The statement ran without yielding, so (before, LastSeq] is exactly
		// the set of binlog entries it committed; registering them lets the
		// dump and apply threads join this write's trace.
		for seq := before + 1; seq <= s.Log.LastSeq(); seq++ {
			s.Tracer.LinkSeq(s.Log, seq, sp)
		}
	}
	cost := s.Cost.StatementCost(res.Stats, false)
	if s.GroupCommitWindow > 0 && res.Stats.Class == sqlengine.ClassWrite && !sess.InTxn() {
		fsync := s.Cost.CommitFsync
		if fsync > cost {
			fsync = cost
		}
		s.Inst.Work(p, cost-fsync) // execution minus the fsync share
		s.groupCommit(p)
		sp.End(p)
		return res, nil
	}
	s.Inst.Work(p, cost)
	sp.End(p)
	return res, nil
}

// groupCommit makes the calling write part of a binlog commit group: the
// first arrival leads — it holds the group open for GroupCommitWindow, then
// pays one CommitFsync of binlog-disk time for everyone — and later
// arrivals ride along, waking when the group's fsync completes.
func (s *DBServer) groupCommit(p *sim.Proc) {
	s.stats.GroupedWrites++
	if s.gcOpen {
		s.gcSize++
		if s.gcSize > s.stats.MaxGroupSize {
			s.stats.MaxGroupSize = s.gcSize
		}
		s.gcSig.Wait(p)
		return
	}
	if s.binlogDisk == nil {
		s.binlogDisk = sim.NewResource(s.env, s.Name+"/binlog-disk", 1)
	}
	s.gcOpen = true
	s.gcSize = 1
	s.gcSig = sim.NewSignal(s.env).Named(s.Name + "/group-commit")
	if s.stats.MaxGroupSize < 1 {
		s.stats.MaxGroupSize = 1
	}
	gsp := s.Tracer.StartSpan(p, "binlog", "group-commit")
	p.Sleep(s.GroupCommitWindow)
	// Close the group before fsyncing so commits arriving during the fsync
	// form the next group instead of joining one whose write is in flight.
	sig := s.gcSig
	size := s.gcSize
	s.gcOpen = false
	s.stats.GroupCommits++
	s.binlogDisk.Use(p, s.Cost.CommitFsync)
	sig.Broadcast()
	gsp.SetAttrInt("size", int64(size))
	gsp.End(p)
}

// ExecFree executes a statement without charging CPU — used by loaders that
// pre-populate databases before an experiment's clock starts.
func (s *DBServer) ExecFree(sess *sqlengine.Session, sql string, args ...sqlengine.Value) (*sqlengine.Result, error) {
	stmt, err := s.Eng.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.Run(sess, args...)
}

// Apply re-executes a replicated statement on this server (the slave SQL
// thread path): time builtins re-evaluate against this instance's clock,
// and CPU is charged at the apply rate.
func (s *DBServer) Apply(p *sim.Proc, sess *sqlengine.Session, e binlog.Entry) error {
	if !s.Up() {
		return ErrServerDown
	}
	if e.Database != "" && sess.DB() != e.Database {
		if err := sess.Use(e.Database); err != nil {
			return err
		}
	}
	res, err := sess.Replay(e.LoggedWrite)
	if err != nil {
		return err
	}
	s.stats.Applied++
	cost := s.Cost.StatementCost(res.Stats, true)
	if s.PriorityApply {
		s.Inst.WorkHigh(p, cost)
	} else {
		s.Inst.Work(p, cost)
	}
	return nil
}

// DumpBatchWork charges the master CPU for shipping a batch of n binlog
// events in one network transit: the first event pays the full per-event
// cost (connection handling, packet assembly), each additional one only the
// batched marginal cost; a batch of one costs exactly DumpPerEvent.
func (s *DBServer) DumpBatchWork(p *sim.Proc, n int) {
	s.Inst.Work(p, batchCost(s.Cost.DumpPerEvent, s.Cost.DumpPerEntryBatched, n))
}

// RelayBatchWork is DumpBatchWork's slave-side counterpart: one relay-log
// write for the whole received batch. PriorityApply covers the whole
// replication pipeline, so the I/O thread is prioritized together with the
// SQL thread.
func (s *DBServer) RelayBatchWork(p *sim.Proc, n int) {
	cost := batchCost(s.Cost.RelayPerEvent, s.Cost.RelayPerEntryBatched, n)
	if s.PriorityApply {
		s.Inst.WorkHigh(p, cost)
		return
	}
	s.Inst.Work(p, cost)
}

// batchCost is first + (n-1)×marginal; a zero marginal cost (custom cost
// models predating batching) falls back to the full per-event cost.
func batchCost(first, marginal time.Duration, n int) time.Duration {
	if n <= 1 {
		return first
	}
	if marginal <= 0 {
		marginal = first
	}
	return first + time.Duration(n-1)*marginal
}
