package repl_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/binlog"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// A binlog entry reaches a replica in one of two forms: in memory, with the
// statement's prepared form beside its text, or off the wire codec, text
// only. The first re-executes the replica's own compiled plan, the second is
// parsed; nothing else may tell them apart. These tests drive the Cloudstone
// write mix plus heartbeats through both forms and through the single and
// the four-worker applier, and hold every replica to the same contents, the
// same per-entry ExecStats (what the cost model charges) and the same text in
// its own binlog.

const replicaClock = 777 // every replica's UTC_MICROS(): any master's differs

var equivalenceTables = []string{
	cloudstone.DatabaseName + ".users", cloudstone.DatabaseName + ".events",
	cloudstone.DatabaseName + ".attendance", cloudstone.DatabaseName + ".event_tags",
	cloudstone.DatabaseName + ".comments", heartbeat.DatabaseName + ".heartbeat",
}

func newEquivalenceServer(t *testing.T, env *sim.Env, c *cloud.Cloud, name string) *server.DBServer {
	t.Helper()
	at := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	srv := server.New(env, name, c.Launch(name, cloud.Small, at), server.DefaultCostModel())
	if err := cloudstone.Preload(30)(srv); err != nil {
		t.Fatal(err)
	}
	if err := heartbeat.Preload(srv); err != nil {
		t.Fatal(err)
	}
	return srv
}

func newReplica(t *testing.T, env *sim.Env, c *cloud.Cloud, name string) *server.DBServer {
	srv := newEquivalenceServer(t, env, c, name)
	srv.Eng.NowMicros = func() int64 { return replicaClock }
	return srv
}

// writeMix runs the five Cloudstone write statements, a heartbeat and one
// statement without parameters (which logs no prepared form) round-robin on
// the master, as a client would, and returns each statement's ExecStats.
func writeMix(t *testing.T, p *sim.Proc, m *server.DBServer, n int) []sqlengine.ExecStats {
	t.Helper()
	app, hb := m.Session(cloudstone.DatabaseName), m.Session(heartbeat.DatabaseName)
	in := sqlengine.NewInt
	str := sqlengine.NewString
	var stats []sqlengine.ExecStats
	for i := 0; i < n; i++ {
		id, seed := int64(1000+i), int64(i%30+1)
		sess := app
		var sql string
		var args []sqlengine.Value
		switch i % 7 {
		case 0:
			sql = "INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, ?, ?, ?, UTC_MICROS(), UTC_MICROS())"
			args = []sqlengine.Value{in(id), in(seed), str(fmt.Sprintf("Event %d meetup", id)), str("it's \\ new")}
		case 1:
			sql = "INSERT INTO attendance (id, event_id, user_id, created) VALUES (?, ?, ?, UTC_MICROS())"
			args = []sqlengine.Value{in(id), in(seed), in(seed)}
		case 2:
			sql = "INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)"
			args = []sqlengine.Value{in(id), in(seed), in(int64(i%cloudstone.NumTags + 1))}
		case 3:
			sql = "INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, ?, ?, ?, UTC_MICROS())"
			args = []sqlengine.Value{in(id), in(seed), in(seed), str("sounds great, count me in")}
		case 4:
			sql = "UPDATE events SET description = ? WHERE id = ?"
			args = []sqlengine.Value{str(fmt.Sprintf("edit %d", i)), in(seed)}
		case 5:
			sess, sql = hb, "INSERT INTO heartbeat (id, ts) VALUES (?, UTC_MICROS())"
			args = []sqlengine.Value{in(id)}
		default:
			sql = fmt.Sprintf("DELETE FROM comments WHERE event_id = %d AND id > 1000", seed)
		}
		res, err := m.Exec(p, sess, sql, args...)
		if err != nil {
			t.Errorf("write %d: %v", i, err)
			return nil
		}
		stats = append(stats, res.Stats)
	}
	return stats
}

func dumpTables(t *testing.T, srv *server.DBServer) string {
	t.Helper()
	var b strings.Builder
	sess := srv.Session("")
	for _, table := range equivalenceTables {
		set, err := sess.Query("SELECT * FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s (%d rows)\n", table, len(set.Rows))
		for _, r := range set.Rows {
			for _, v := range r {
				b.WriteString(v.SQL())
				b.WriteByte('|')
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func entriesSince(t *testing.T, l *binlog.Log, from uint64) []binlog.Entry {
	t.Helper()
	var out []binlog.Entry
	for seq := from + 1; seq <= l.LastSeq(); seq++ {
		e, err := l.At(seq)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// replay is DBServer.Apply without the CPU charge, returning the ExecStats.
func replay(t *testing.T, sess *sqlengine.Session, e binlog.Entry) sqlengine.ExecStats {
	t.Helper()
	if sess.DB() != e.Database {
		if _, err := sess.Exec("USE " + e.Database); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Replay(e.LoggedWrite)
	if err != nil {
		t.Fatalf("replay seq %d: %v", e.Seq, err)
	}
	return res.Stats
}

func TestReplayEquivalentAcrossEntryForms(t *testing.T) {
	env := sim.NewEnv(5)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	master := newEquivalenceServer(t, env, c, "master")
	a, b := newReplica(t, env, c, "a"), newReplica(t, env, c, "b")
	logged := [3]uint64{master.Log.LastSeq(), a.Log.LastSeq(), b.Log.LastSeq()}

	var onMaster []sqlengine.ExecStats
	env.Go("client", func(p *sim.Proc) { onMaster = writeMix(t, p, master, 140) })
	env.RunUntil(time.Hour)
	if t.Failed() {
		t.FailNow()
	}
	inMemory := entriesSince(t, master.Log, logged[0])
	wire, err := binlog.DecodeBatch(binlog.EncodeBatch(inMemory))
	if err != nil || len(wire) != len(inMemory) || len(inMemory) != len(onMaster) {
		t.Fatalf("%d entries, %d decoded (%v), %d statements", len(inMemory), len(wire), err, len(onMaster))
	}
	prepared := 0
	for i, e := range inMemory {
		if e.Stmt != "" {
			prepared++
		}
		if wire[i].Stmt != "" || wire[i].Args != nil || wire[i].SQL != e.SQL {
			t.Fatalf("decoded entry %d carries %+v", i, wire[i])
		}
	}
	if want := len(inMemory) - len(inMemory)/7; prepared != want {
		t.Fatalf("%d of %d entries carry a prepared form, want %d (all but the parameterless DELETE)", prepared, len(inMemory), want)
	}

	sessA, sessB := a.Session(""), b.Session("")
	for i := range inMemory {
		sa, sb := replay(t, sessA, inMemory[i]), replay(t, sessB, wire[i])
		if sa != sb || sa != onMaster[i] {
			t.Fatalf("entry %d (%s): stats in memory %+v, off the wire %+v, on the master %+v",
				i, inMemory[i].SQL, sa, sb, onMaster[i])
		}
	}
	dumpA, dumpB := dumpTables(t, a), dumpTables(t, b)
	if dumpA != dumpB {
		t.Fatalf("replica contents differ between entry forms:\n%s\nvs\n%s", dumpA, dumpB)
	}
	// Time builtins re-evaluate on the replica's own clock.
	if !strings.Contains(dumpA, fmt.Sprintf("|%d|", replicaClock)) || strings.Contains(dumpTables(t, master), fmt.Sprintf("|%d|", replicaClock)) {
		t.Fatal("UTC_MICROS() columns do not carry the executing server's clock")
	}
	// Each replica's own binlog holds the master's text, whichever form fed it.
	logA, logB := entriesSince(t, a.Log, logged[1]), entriesSince(t, b.Log, logged[2])
	if len(logA) != len(inMemory) || len(logB) != len(inMemory) {
		t.Fatalf("replica binlogs hold %d and %d entries, want %d", len(logA), len(logB), len(inMemory))
	}
	for i, e := range inMemory {
		if logA[i].SQL != e.SQL || logB[i].SQL != e.SQL {
			t.Fatalf("entry %d: master logged %q, replicas %q and %q", i, e.SQL, logA[i].SQL, logB[i].SQL)
		}
	}
	if a.Log.Bytes() != b.Log.Bytes() {
		t.Fatalf("replica binlog bytes differ: %d vs %d", a.Log.Bytes(), b.Log.Bytes())
	}

	// The appliers — one SQL thread, then four workers scheduling by the
	// table each entry's prepared statement names — land on the same contents.
	for _, workers := range []int{1, 4} {
		if got := appliedContents(t, repl.PipelineConfig{BatchMaxEntries: 8, ApplyWorkers: workers}); got != dumpA {
			t.Fatalf("%d apply worker(s): slave contents differ from the replayed replica's:\n%s\nvs\n%s", workers, got, dumpA)
		}
	}
}

// appliedContents replicates the write mix to one slave through the real
// pipeline and returns the slave's contents once it has caught up.
func appliedContents(t *testing.T, pc repl.PipelineConfig) string {
	t.Helper()
	env := sim.NewEnv(5)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	m := repl.NewMaster(env, newEquivalenceServer(t, env, c, "master"), c.Network(), repl.Async)
	m.Pipeline = pc
	sl := repl.NewSlave(env, newReplica(t, env, c, "slave"))
	m.Attach(sl, repl.Executed{Low: m.Srv.Log.LastSeq()})
	env.Go("client", func(p *sim.Proc) { writeMix(t, p, m.Srv, 140) })
	env.RunUntil(time.Hour)
	if sl.AppliedSeq() != m.Srv.Log.LastSeq() || sl.ApplyErrors() != 0 {
		t.Fatalf("%+v: slave applied %d of %d with %d errors", pc, sl.AppliedSeq(), m.Srv.Log.LastSeq(), sl.ApplyErrors())
	}
	return dumpTables(t, sl.Srv)
}
