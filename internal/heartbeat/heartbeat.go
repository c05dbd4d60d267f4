// Package heartbeat implements the paper's replication-delay measurement
// methodology (§III-A): a dedicated Heartbeats database whose heartbeat
// table receives a row with a global id and a *local* microsecond timestamp
// every second on the master. Statement-based replication re-executes the
// INSERT on each slave, committing the slave's own local timestamp for the
// same id; the per-row difference is that slave's replication delay for
// that heartbeat (polluted by clock offset, which the relative-delay
// computation cancels out).
package heartbeat

import (
	"fmt"
	"time"

	"cloudrepl/internal/metrics"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// DatabaseName is the dedicated heartbeat database.
const DatabaseName = "heartbeats"

// schemaDDL is the heartbeat schema, and schema the same parsed once per
// process: every master of every cell runs it, and the engines share the trees.
var schemaDDL = [...]string{
	"CREATE DATABASE IF NOT EXISTS " + DatabaseName,
	"CREATE TABLE IF NOT EXISTS " + DatabaseName + ".heartbeat (id BIGINT PRIMARY KEY, ts TIMESTAMP(6) NOT NULL)",
}
var schema = func() (out [len(schemaDDL)]sqlengine.Stmt) {
	for i, sql := range schemaDDL {
		// The text is constant, and TestPreloadLogsWhatItsTextLogs runs it.
		out[i], _ = sqlengine.Parse(sql)
	}
	return out
}()

// Preload installs the heartbeat schema on a server; the cluster preload
// (which runs on the master — replicas start from its image) must include it.
func Preload(srv *server.DBServer) error {
	sess := srv.Session("")
	for _, st := range schema {
		if _, err := srv.Eng.PrepareParsed(st).Run(sess); err != nil {
			return fmt.Errorf("heartbeat: preload: %w", err)
		}
	}
	return nil
}

// Plugin periodically inserts heartbeat rows on the master.
type Plugin struct {
	master   *repl.Master
	interval time.Duration

	nextID   int64
	firstID  int64
	lastID   int64
	inserted map[int64]sim.Time // id → virtual insert time
	stopped  bool

	// A beat answers in reply and passes its id in args, both reused: the
	// engine copies the arguments it logs, so a beat allocates nothing.
	reply sqlengine.Reply
	args  [1]sqlengine.Value
}

// Start launches the heartbeat process, inserting one row per interval.
func Start(env *sim.Env, master *repl.Master, interval time.Duration) *Plugin {
	pl := &Plugin{master: master, interval: interval, nextID: 1, firstID: 1, inserted: make(map[int64]sim.Time)}
	sess := master.Srv.Session(DatabaseName)
	env.Go("heartbeat", func(p *sim.Proc) {
		for !pl.stopped && master.Srv.Up() {
			id := pl.nextID
			pl.nextID++
			// The UTC_MICROS() builtin is evaluated per executing server:
			// master time here, slave time on re-execution.
			pl.args[0] = sqlengine.NewInt(id)
			_, err := master.Srv.ExecInto(p, sess, &pl.reply, "INSERT INTO heartbeat (id, ts) VALUES (?, UTC_MICROS())", pl.args[:]...)
			if err == nil {
				pl.inserted[id] = p.Now()
				pl.lastID = id
			}
			p.Sleep(pl.interval)
		}
	})
	return pl
}

// Stop halts the plugin after its current beat.
func (pl *Plugin) Stop() { pl.stopped = true }

// IDsInWindow returns heartbeat ids whose insert time fell in [from, to).
func (pl *Plugin) IDsInWindow(from, to sim.Time) []int64 {
	var out []int64
	for id := pl.firstID; id < pl.nextID; id++ {
		at, ok := pl.inserted[id]
		if ok && at >= from && at < to {
			out = append(out, id)
		}
	}
	return out
}

// SlaveDelays reads the master and slave heartbeat tables directly (a
// measurement-plane read, no CPU charged) and returns the per-id delay
// slaveTs − masterTs, in milliseconds, for the given ids. Heartbeats not
// yet applied on the slave are skipped — their delay is still unbounded —
// and the skipped count is reported so callers can account for them.
func SlaveDelays(master *repl.Master, sl *repl.Slave, ids []int64) (delaysMs []float64, missing int, err error) {
	mTs, err := tableTimestamps(master.Srv, ids)
	if err != nil {
		return nil, 0, err
	}
	sTs, err := tableTimestamps(sl.Srv, ids)
	if err != nil {
		return nil, 0, err
	}
	for _, id := range ids {
		m, okM := mTs[id]
		s, okS := sTs[id]
		if !okM {
			continue
		}
		if !okS {
			missing++
			continue
		}
		delaysMs = append(delaysMs, float64(s-m)/1000.0)
	}
	return delaysMs, missing, nil
}

func tableTimestamps(srv *server.DBServer, ids []int64) (map[int64]int64, error) {
	sess := srv.Session(DatabaseName)
	out := make(map[int64]int64, len(ids))
	for _, id := range ids {
		set, err := sess.Query("SELECT ts FROM heartbeat WHERE id = ?", sqlengine.NewInt(id))
		if err != nil {
			return nil, fmt.Errorf("heartbeat: read ts: %w", err)
		}
		if len(set.Rows) == 1 {
			out[id] = set.Rows[0][0].Micros()
		}
	}
	return out, nil
}

// PaddedDelays returns the per-id delays with every unapplied heartbeat
// substituted by the worst observed delay, so a badly backlogged slave is
// not reported as fast merely because samples are missing. This is the raw
// sample set behind both the paper's trimmed-mean estimator and the
// pipeline ablation's p95.
func PaddedDelays(master *repl.Master, sl *repl.Slave, ids []int64) ([]float64, error) {
	delays, missing, err := SlaveDelays(master, sl, ids)
	if err != nil {
		return nil, err
	}
	if len(delays) == 0 {
		if missing > 0 {
			return nil, fmt.Errorf("heartbeat: no heartbeat applied on %s (%d outstanding)", sl.Srv.Name, missing)
		}
		return nil, fmt.Errorf("heartbeat: no samples")
	}
	if missing > 0 {
		worst := delays[0]
		for _, d := range delays {
			if d > worst {
				worst = d
			}
		}
		for i := 0; i < missing; i++ {
			delays = append(delays, worst)
		}
	}
	return delays, nil
}

// AvgDelay is the paper's estimator: the mean of per-id delays after
// trimming the top and bottom 5%. Unapplied heartbeats are assigned the
// worst observed delay (see PaddedDelays).
func AvgDelay(master *repl.Master, sl *repl.Slave, ids []int64) (ms float64, err error) {
	delays, err := PaddedDelays(master, sl, ids)
	if err != nil {
		return 0, err
	}
	return metrics.TrimmedMean(delays, 0.05), nil
}

// Staleness is the pt-heartbeat-style probe: how long ago was the oldest
// heartbeat the slave has *not* yet applied inserted on the master (0 when
// fully caught up). Unlike SlaveDelays it needs no clock subtraction — it
// compares the slave's table contents against the plugin's own insert log
// on the virtual timeline. internal/elastic steers on the binlog-timestamp
// variant of this same signal; this probe is the operator-visible
// cross-check.
func (pl *Plugin) Staleness(sl *repl.Slave, now sim.Time) (time.Duration, error) {
	if pl.lastID == 0 {
		return 0, nil
	}
	sess := sl.Srv.Session(DatabaseName)
	newestApplied := int64(0)
	for id := pl.lastID; id >= pl.firstID; id-- {
		set, err := sess.Query("SELECT ts FROM heartbeat WHERE id = ?", sqlengine.NewInt(id))
		if err != nil {
			return 0, fmt.Errorf("heartbeat: staleness probe: %w", err)
		}
		if len(set.Rows) == 1 {
			newestApplied = id
			break
		}
	}
	if newestApplied == pl.lastID {
		return 0, nil
	}
	at, ok := pl.inserted[newestApplied+1]
	if !ok {
		return 0, fmt.Errorf("heartbeat: no insert record for id %d", newestApplied+1)
	}
	d := time.Duration(now - at)
	if d < 0 {
		d = 0
	}
	return d, nil
}
