package shard

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cloudrepl/internal/repl"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// Split protocol. A slot range moves from a source cell to a target with
// writes flowing throughout, except for one short cutover barrier:
//
//  1. Dual-write on. Every client write on a moving key commits on the
//     source, then mirrors to the target's master (duplicate-key replies
//     are benign — the copy may have delivered the row first).
//  2. Copy. The source master is scanned table by table; rows whose key
//     hashes into a moving slot are inserted on the target.
//  3. Catch-up. The source binlog from the pre-copy position is replayed
//     onto the target (moving-key single statements only) until the
//     backlog is small. Replay repairs the dual-write/copy race: an UPDATE
//     that dual-applied before its row was copied touched zero target
//     rows, and the copy then delivered the pre-update image — replaying
//     the full binlog order re-executes the UPDATE on the copied row.
//  4. Barrier. New statements on moving keys (and scatter legs on the
//     source) are rejected with proxy.ErrWrongShard — clients retry with
//     backoff. In-flight statements drain; the final binlog gap replays;
//     moved rows are deleted from the source (and the deletes propagate to
//     the source's slaves so scatter reads can't resurface them); then the
//     map flips ownership and the barrier lifts. The observable write
//     unavailability on moving keys is exactly this window, reported as
//     SplitReport.Downtime.
//
// If the target dies (or its master fails over, or a broadcast write races
// the copy) the split aborts: dual-writes stop, the map never changed, the
// source remains the complete authoritative owner — no rows lost; the
// target never became routable — no rows duplicated.
//
// catchupMaxLag is the backlog (binlog entries) below which the splitter
// stops chasing and enters the barrier.
const catchupMaxLag = 16

// deleteChunk bounds the IN-list of each source cleanup DELETE.
const deleteChunk = 128

// migration is the mutable state of one in-progress split, shared with the
// router (dual-write, inflight tracking, barrier checks).
type migration struct {
	src, dst int
	moving   map[int]bool // slots in motion
	barrier  bool
	inflight int
	drained  *sim.Signal
	// keys accumulates every moved shard key per table (copy scan plus
	// dual-writes) — the source-cleanup delete list.
	keys       map[string]map[int64]bool
	dualWrites int
	failed     bool
	failErr    error
}

func (m *migration) enter() { m.inflight++ }

func (m *migration) leave() {
	m.inflight--
	if m.inflight == 0 {
		m.drained.Broadcast()
	}
}

func (m *migration) fail(err error) {
	if !m.failed {
		m.failed = true
		m.failErr = err
	}
}

// covers reports whether keys fall in moving slots: all of them, or a mix
// of moving and non-moving (which the protocol cannot mirror atomically).
func (m *migration) covers(mp *Map, keys []int64) (all bool, mixed bool) {
	in := 0
	for _, k := range keys {
		if m.moving[mp.SlotOf(k)] {
			in++
		}
	}
	return in == len(keys) && in > 0, in > 0 && in < len(keys)
}

func (m *migration) recordKeys(table string, keys []int64) {
	set := m.keys[table]
	if set == nil {
		set = make(map[int64]bool)
		m.keys[table] = set
	}
	for _, k := range keys {
		set[k] = true
	}
}

// SplitReport describes one split/rebalance attempt.
type SplitReport struct {
	Src            int           `json:"src"`
	Dst            int           `json:"dst"`
	Slots          []int         `json:"slots,omitempty"`
	MovedRows      int           `json:"moved_rows"`
	CatchupEntries int           `json:"catchup_entries"`
	DualWrites     int           `json:"dual_writes"`
	CopyDuration   time.Duration `json:"copy_duration_us"`
	Downtime       time.Duration `json:"downtime_us"`
	Aborted        bool          `json:"aborted,omitempty"`
	Err            string        `json:"err,omitempty"`
}

// Split grows the cluster by one cell online: it builds a fresh cell
// (schema and global tables only) and migrates half of the fullest cell's
// slots onto it. The new cell only becomes routable at cutover, so an
// abort can never leak a partial copy into query results.
func (s *Cluster) Split(p *sim.Proc) (*SplitReport, error) {
	if len(s.cells) >= s.m.NumSlots() {
		return nil, fmt.Errorf("shard: cannot split past %d cells (%d slots)", len(s.cells), s.m.NumSlots())
	}
	if s.mig != nil {
		return nil, fmt.Errorf("shard: a split is already in progress")
	}
	src := 0
	most := -1
	for id := range s.cells {
		if n := len(s.m.SlotsOwnedBy(id)); n > most {
			most, src = n, id
		}
	}
	owned := s.m.SlotsOwnedBy(src)
	if len(owned) < 2 {
		return nil, fmt.Errorf("shard: cell %d owns %d slot(s), nothing to split", src, len(owned))
	}
	dstCell, err := s.addCell(ownsNothing(s.ks))
	if err != nil {
		return nil, err
	}
	moving := owned[len(owned)/2:] // upper half keeps ranges contiguous
	rep, err := s.migrate(p, src, dstCell.ID, moving)
	if rep != nil && rep.Aborted && dstCell.ID == len(s.cells)-1 {
		// The fresh cell never owned a slot; retire it from routing so a
		// dead target doesn't linger in broadcast/any fan-outs.
		s.cells = s.cells[:len(s.cells)-1]
	}
	return rep, err
}

// migrate runs the copy-then-cutover protocol on the calling process.
func (s *Cluster) migrate(p *sim.Proc, src, dst int, slots []int) (*SplitReport, error) {
	rep := &SplitReport{Src: src, Dst: dst, Slots: append([]int(nil), slots...)}
	srcM := s.cells[src].Clu.Master()
	dstM := s.cells[dst].Clu.Master()
	mig := &migration{
		src:     src,
		dst:     dst,
		moving:  make(map[int]bool, len(slots)),
		drained: sim.NewSignal(s.env).Named(fmt.Sprintf("shard/split%d-drain", dst)),
		keys:    make(map[string]map[int64]bool),
	}
	for _, sl := range slots {
		mig.moving[sl] = true
	}

	// Phase 1+2: record the replay floor, open the dual-write window, copy.
	seq0 := srcM.Srv.Log.LastSeq()
	s.mig = mig
	copyStart := p.Now()
	moved, err := s.copyMoving(p, mig, srcM, dstM)
	rep.MovedRows = moved
	s.stats.MovedRows += uint64(moved)
	if err == nil {
		err = s.checkSplitHealth(mig, srcM, dstM)
	}
	rep.CopyDuration = time.Duration(p.Now() - copyStart)
	if err != nil {
		return s.abort(rep, mig, err)
	}

	// Phase 3: chase the binlog until the backlog is short.
	pos := seq0
	for {
		last := srcM.Srv.Log.LastSeq()
		n, rerr := s.replayRange(p, mig, srcM, dstM, pos, last)
		rep.CatchupEntries += n
		pos = last
		if rerr == nil {
			rerr = s.checkSplitHealth(mig, srcM, dstM)
		}
		if rerr != nil {
			return s.abort(rep, mig, rerr)
		}
		if srcM.Srv.Log.LastSeq()-pos <= catchupMaxLag {
			break
		}
	}
	// Chase the source slaves down to a bounded apply lag before the
	// barrier closes: the in-barrier cleanup wait then covers only the
	// barrier window's own entries (the bounded lag, the final replay gap
	// and the cleanup deletes), so the observable downtime stays decoupled
	// from whatever apply backlog the slaves accumulated during the copy.
	// A tier whose slaves structurally cannot keep up never converges here
	// and the split aborts at the deadline instead of freezing writes.
	if err := s.waitSrcLag(p, srcM, catchupMaxLag, 30*time.Second); err != nil {
		return s.abort(rep, mig, err)
	}
	if err := s.checkSplitHealth(mig, srcM, dstM); err != nil {
		return s.abort(rep, mig, err)
	}

	// Phase 4: barrier — drain, final replay, source cleanup, flip.
	mig.barrier = true
	barrierStart := p.Now()
	for mig.inflight > 0 {
		mig.drained.Wait(p)
	}
	last := srcM.Srv.Log.LastSeq()
	n, err := s.replayRange(p, mig, srcM, dstM, pos, last)
	rep.CatchupEntries += n
	if err == nil {
		err = s.checkSplitHealth(mig, srcM, dstM)
	}
	if err != nil {
		return s.abort(rep, mig, err)
	}
	if err := s.cleanupSource(p, mig, srcM); err != nil {
		return s.abort(rep, mig, err)
	}
	s.m = s.m.Move(slots, dst)
	mig.barrier = false
	s.mig = nil
	rep.Downtime = time.Duration(p.Now() - barrierStart)
	rep.DualWrites = mig.dualWrites
	s.stats.Splits++
	return rep, nil
}

// abort tears the migration down with the map untouched: the source stays
// the complete owner of every moving slot.
func (s *Cluster) abort(rep *SplitReport, mig *migration, err error) (*SplitReport, error) {
	mig.fail(err)
	mig.barrier = false
	s.mig = nil
	s.stats.SplitAborts++
	rep.Aborted = true
	rep.Err = mig.failErr.Error()
	rep.DualWrites = mig.dualWrites
	return rep, nil
}

// checkSplitHealth detects conditions that force an abort: a failed
// dual-write, a dead target master, or either endpoint failing over (the
// captured master pointer no longer leads its cell).
func (s *Cluster) checkSplitHealth(mig *migration, srcM, dstM *repl.Master) error {
	if mig.failed {
		return mig.failErr
	}
	if !dstM.Srv.Up() {
		return fmt.Errorf("shard: split target cell %d master is down", mig.dst)
	}
	if s.cells[mig.src].Clu.Master() != srcM {
		return fmt.Errorf("shard: source cell %d failed over during split", mig.src)
	}
	if s.cells[mig.dst].Clu.Master() != dstM {
		return fmt.Errorf("shard: target cell %d failed over during split", mig.dst)
	}
	return nil
}

// copyMoving scans each sharded table on the source master and inserts the
// rows of moving slots on the target. Both sides pay real statement cost
// (the scan loads the source master like a logical dump). Duplicate keys on
// the target mean a dual-write won the race — benign.
func (s *Cluster) copyMoving(p *sim.Proc, mig *migration, srcM, dstM *repl.Master) (int, error) {
	moved := 0
	srcSess := srcM.Srv.Session(s.cfg.Database)
	dstSess := dstM.Srv.Session(s.cfg.Database)
	for _, table := range s.ks.shardedTables() {
		kc, _ := s.ks.keyColumn(table)
		res, err := srcM.Srv.Exec(p, srcSess, "SELECT * FROM "+table)
		if err != nil {
			return moved, fmt.Errorf("shard: split scan %s: %w", table, err)
		}
		if res.Set == nil {
			continue
		}
		kidx := -1
		for i, col := range res.Set.Columns {
			if strings.EqualFold(col, kc) {
				kidx = i
			}
		}
		if kidx < 0 {
			return moved, fmt.Errorf("shard: table %s has no column %s", table, kc)
		}
		insert := insertTemplate(table, res.Set.Columns)
		for _, row := range res.Set.Rows {
			key := row[kidx].Int()
			if !mig.moving[s.m.SlotOf(key)] {
				continue
			}
			if _, err := dstM.Srv.Exec(p, dstSess, insert, row...); err != nil {
				if errors.Is(err, sqlengine.ErrDuplicateKey) {
					mig.recordKeys(table, []int64{key})
					continue
				}
				return moved, fmt.Errorf("shard: split insert %s: %w", table, err)
			}
			mig.recordKeys(table, []int64{key})
			moved++
			if moved%64 == 0 {
				if err := s.checkSplitHealth(mig, srcM, dstM); err != nil {
					return moved, err
				}
			}
		}
	}
	return moved, nil
}

// insertTemplate builds the parameterized INSERT for one copied row.
func insertTemplate(table string, cols []string) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" (")
	b.WriteString(strings.Join(cols, ", "))
	b.WriteString(") VALUES (")
	for i := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("?")
	}
	b.WriteString(")")
	return b.String()
}

// replayRange re-executes source binlog entries (lo, hi] on the target:
// single-key writes of the application database whose key is moving.
// Statement-based replay in full binlog order repairs every
// dual-write/copy interleaving; duplicate-key replies (the row arrived by
// copy or dual-write) are benign.
func (s *Cluster) replayRange(p *sim.Proc, mig *migration, srcM, dstM *repl.Master, lo, hi uint64) (int, error) {
	if hi <= lo {
		return 0, nil
	}
	dstSess := dstM.Srv.Session(s.cfg.Database)
	replayed := 0
	for seq := lo + 1; seq <= hi; seq++ {
		e, err := srcM.Srv.Log.At(seq)
		if err != nil {
			return replayed, fmt.Errorf("shard: split replay read seq %d: %w", seq, err)
		}
		if e.Database != s.cfg.Database {
			continue
		}
		// Replay routes on the interpolated statement text; it is not
		// cached (dump text is unbounded, unlike the client template set).
		ri := analyze(e.SQL, s.ks)
		if ri.kind != routeSingle || !ri.write {
			continue
		}
		keys, kerr := ri.resolveKeys(nil, nil)
		if kerr != nil {
			continue
		}
		all, mixed := mig.covers(s.m, keys)
		if mixed {
			return replayed, fmt.Errorf("shard: replayed statement mixes moving and non-moving slots")
		}
		if !all {
			continue
		}
		if _, err := dstM.Srv.ExecLogged(p, dstSess, e); err != nil && !errors.Is(err, sqlengine.ErrDuplicateKey) {
			return replayed, fmt.Errorf("shard: split replay seq %d: %w", seq, err)
		}
		mig.recordKeys(ri.table, keys)
		replayed++
		s.stats.ReplayedEntries++
	}
	return replayed, nil
}

// cleanupSource deletes every moved row from the source master (chunked
// IN-list deletes, replicated to the source's slaves through the normal
// binlog path) and waits for the source slaves to apply them, so a scatter
// read after the flip cannot resurface a moved row from a lagging replica.
func (s *Cluster) cleanupSource(p *sim.Proc, mig *migration, srcM *repl.Master) error {
	sess := srcM.Srv.Session(s.cfg.Database)
	for _, table := range s.ks.shardedTables() {
		set := mig.keys[table]
		if len(set) == 0 {
			continue
		}
		kc, _ := s.ks.keyColumn(table)
		keys := sortedKeys(set)
		for off := 0; off < len(keys); off += deleteChunk {
			end := off + deleteChunk
			if end > len(keys) {
				end = len(keys)
			}
			var b strings.Builder
			b.WriteString("DELETE FROM ")
			b.WriteString(table)
			b.WriteString(" WHERE ")
			b.WriteString(kc)
			b.WriteString(" IN (")
			for i, k := range keys[off:end] {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(strconv.FormatInt(k, 10))
			}
			b.WriteString(")")
			if _, err := srcM.Srv.Exec(p, sess, b.String()); err != nil {
				return fmt.Errorf("shard: split cleanup %s: %w", table, err)
			}
		}
	}
	// Let the deletes reach every live source slave before reads resume.
	return s.waitSrcApplied(p, srcM, srcM.Srv.Log.LastSeq(), 5*time.Second)
}

// waitSrcApplied blocks until every live source slave has applied the
// source binlog through target, or fails at the deadline.
func (s *Cluster) waitSrcApplied(p *sim.Proc, srcM *repl.Master, target uint64, timeout time.Duration) error {
	deadline := p.Now() + sim.Time(timeout)
	for {
		lagging := false
		for _, sl := range srcM.Slaves() {
			if sl.Srv.Up() && sl.AppliedSeq() < target {
				lagging = true
			}
		}
		if !lagging {
			return nil
		}
		if p.Now() >= deadline {
			return fmt.Errorf("shard: source slaves did not apply the split backlog in time")
		}
		p.Sleep(2 * time.Millisecond)
	}
}

// waitSrcLag blocks until every live source slave is within maxLag entries
// of the source master's moving binlog tail, or fails at the deadline.
func (s *Cluster) waitSrcLag(p *sim.Proc, srcM *repl.Master, maxLag uint64, timeout time.Duration) error {
	deadline := p.Now() + sim.Time(timeout)
	for {
		tail := srcM.Srv.Log.LastSeq()
		lagging := false
		for _, sl := range srcM.Slaves() {
			if sl.Srv.Up() && sl.AppliedSeq()+maxLag < tail {
				lagging = true
			}
		}
		if !lagging {
			return nil
		}
		if p.Now() >= deadline {
			lags := []uint64{}
			for _, sl := range srcM.Slaves() {
				lags = append(lags, tail-sl.AppliedSeq())
			}
			return fmt.Errorf("shard: source slaves cannot keep up (tail %d, lags %v); refusing to extend the cutover barrier", tail, lags)
		}
		p.Sleep(2 * time.Millisecond)
	}
}
