package repl_test

import (
	"fmt"
	"reflect"
	"runtime"
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

// A dump thread ships windows onto the master's log, not copies. These tests
// hold the stream to what that requires — a window a slave holds is never
// disturbed by the master, and the slave never writes through it — and to
// what it buys: outside the statement's re-execution, moving an event from
// the master's log into a replica allocates nothing.

// newStreamServer is a server holding one two-column table, so that a log
// starts a few entries long and a test can outgrow it cheaply.
func newStreamServer(t *testing.T, env *sim.Env, c *cloud.Cloud, name string) *server.DBServer {
	t.Helper()
	at := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	srv := server.New(env, name, c.Launch(name, cloud.Small, at), server.DefaultCostModel())
	sess := srv.Session("")
	for _, sql := range []string{"CREATE DATABASE app", "USE app", "CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(40))"} {
		if _, err := srv.ExecFree(sess, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return srv
}

func TestShipByReference(t *testing.T) {
	env := sim.NewEnv(5)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	m := repl.NewMaster(env, newStreamServer(t, env, c, "master"), c.Network(), repl.Async)
	m.Pipeline = repl.PipelineConfig{BatchMaxEntries: 64}
	sl := repl.NewSlave(env, newStreamServer(t, env, c, "slave"))
	base := m.Srv.Log.LastSeq()
	m.Attach(sl, base)

	// With its instance down the slave's I/O thread takes one batch and
	// parks; everything shipped after that waits on the socket, where the
	// test can look at it.
	sl.Srv.Inst.Terminate()
	sess := m.Srv.Session("app")
	env.Go("client", func(p *sim.Proc) {
		for id := int64(1); id <= 6; id++ {
			if _, err := m.Srv.Exec(p, sess, "INSERT INTO t (id, v) VALUES (?, ?)",
				sqlengine.NewInt(id), sqlengine.NewString(fmt.Sprint("row ", id))); err != nil {
				t.Error(err)
			}
		}
	})
	env.RunFor(time.Minute)
	batch, ok := sl.PeekReceived()
	if !ok || len(batch) == 0 {
		t.Fatal("nothing waiting on the slave's socket")
	}
	held := append([]binlog.Entry(nil), batch...)
	logged := entriesSince(t, m.Srv.Log, 0)

	// One append at most doubles the log's array, so growing the log to
	// 2048 times its length — more than 1024 times its capacity — moves it
	// at least ten times while the slave holds the batch.
	for id := int64(len(logged)); id < 2048*int64(len(logged)); id++ {
		m.Srv.Log.Append("app", fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'filler')", 1000+id), 0)
	}
	env.RunFor(time.Minute)
	if again, _ := sl.PeekReceived(); !reflect.DeepEqual(batch, held) || !reflect.DeepEqual(again, held) {
		t.Fatalf("a received batch changed while the master's log grew:\n%+v\nwas\n%+v", batch, held)
	}

	// Back up, the I/O thread coalesces the queued windows by appending to
	// the first: that must copy, never write into the master's array.
	sl.Srv.Inst.Restart()
	env.RunFor(10 * time.Hour)
	if sl.AppliedSeq() != m.Srv.Log.LastSeq() || sl.ApplyErrors() != 0 {
		t.Fatalf("slave applied %d of %d with %d errors", sl.AppliedSeq(), m.Srv.Log.LastSeq(), sl.ApplyErrors())
	}
	if st := m.Stats(); st.BatchesShipped == st.EntriesShipped {
		t.Fatalf("%d batches for %d entries: nothing was coalesced", st.BatchesShipped, st.EntriesShipped)
	}
	if now := entriesSince(t, m.Srv.Log, 0)[:len(logged)]; !reflect.DeepEqual(now, logged) {
		t.Fatal("the master's log was written to after its entries were appended")
	}
	dump := func(srv *server.DBServer) string {
		set, err := srv.Session("app").Query("SELECT id, v FROM t ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(len(set.Rows), set.Rows[:6], set.Rows[len(set.Rows)-1])
	}
	// The master's engine ran only the client's six statements; the filler
	// went straight into its log.
	if got, want := dump(sl.Srv), fmt.Sprint(2048*len(logged)-len(logged)+6); got[:len(want)] != want {
		t.Fatalf("slave holds %s, want %s rows", got, want)
	}

	// Batch size and applier width change how windows are cut and who reads
	// them, never what a replica ends up holding.
	var first string
	for _, pc := range []repl.PipelineConfig{
		{BatchMaxEntries: 1, ApplyWorkers: 1}, {BatchMaxEntries: 64, ApplyWorkers: 1},
		{BatchMaxEntries: 1, ApplyWorkers: 4}, {BatchMaxEntries: 64, ApplyWorkers: 4},
	} {
		got := appliedContents(t, pc)
		if first == "" {
			first = got
		}
		if got != first {
			t.Fatalf("%+v: replica contents differ from the per-entry, single-applier run's:\n%s\nvs\n%s", pc, got, first)
		}
	}
}

// mallocs is the process's count of heap objects allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestReplicationStreamAllocs streams Cloudstone INSERTs and heartbeats, in
// alternating databases, from one master to two slaves that keep up, and
// counts the heap objects the whole simulation allocates per event. The same
// entries replayed on a bare session of an identical server give the engine's
// share; what is left — log append, dump thread, pipe, I/O thread, relay log,
// database switch, CPU charge, kernel events — must be nothing.
func TestReplicationStreamAllocs(t *testing.T) {
	const warm, measured = 1000, 4000
	env := sim.NewEnv(9)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})

	// The statements execute once, on a server outside the topology; its
	// log is where the entries the master will ship come from.
	source := newEquivalenceServer(t, env, c, "source")
	from := source.Log.LastSeq()
	app, hb := source.Session(cloudstone.DatabaseName), source.Session(heartbeat.DatabaseName)
	in, str := sqlengine.NewInt, sqlengine.NewString
	for i := int64(0); i < warm+measured; i++ {
		id, seed := 5000+i, i%30+1
		var err error
		switch i % 8 {
		case 0:
			_, err = source.ExecFree(app, "INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, ?, ?, ?, UTC_MICROS(), UTC_MICROS())",
				in(id), in(seed), str("Event meetup"), str("created during the run"))
		case 2:
			_, err = source.ExecFree(app, "INSERT INTO attendance (id, event_id, user_id, created) VALUES (?, ?, ?, UTC_MICROS())", in(id), in(seed), in(seed))
		case 4:
			_, err = source.ExecFree(app, "INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)", in(id), in(seed), in(seed%cloudstone.NumTags+1))
		case 6:
			_, err = source.ExecFree(app, "INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, ?, ?, ?, UTC_MICROS())",
				in(id), in(seed), in(seed), str("sounds great, count me in"))
		default:
			_, err = source.ExecFree(hb, "INSERT INTO heartbeat (id, ts) VALUES (?, UTC_MICROS())", in(id))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	entries := entriesSince(t, source.Log, from)
	if len(entries) != warm+measured {
		t.Fatalf("%d entries logged, want %d", len(entries), warm+measured)
	}

	m := repl.NewMaster(env, newEquivalenceServer(t, env, c, "master"), c.Network(), repl.Async)
	slaves := []*repl.Slave{repl.NewSlave(env, newReplica(t, env, c, "slave1")), repl.NewSlave(env, newReplica(t, env, c, "slave2"))}
	for _, sl := range slaves {
		m.Attach(sl, m.Srv.Log.LastSeq())
	}
	base := m.Srv.Log.LastSeq()
	const every = 100 * time.Millisecond // an apply costs ~42 ms of slave CPU
	env.Go("feeder", func(p *sim.Proc) {
		for _, e := range entries {
			m.Srv.Log.AppendWrite(e.Database, e.LoggedWrite, e.TimestampMicros)
			p.Sleep(every)
		}
	})
	applied := func() uint64 { return slaves[0].AppliedSeq() + slaves[1].AppliedSeq() - 2*base }
	env.RunFor(warm * every)
	before, start := applied(), mallocs()
	env.RunFor(measured * every)
	total, shipped := mallocs()-start, applied()-before
	if shipped < 2*measured-4 || slaves[0].ApplyErrors()+slaves[1].ApplyErrors() != 0 {
		t.Fatalf("%d events applied in the measured window, want about %d; %d apply errors",
			shipped, 2*measured, slaves[0].ApplyErrors()+slaves[1].ApplyErrors())
	}

	oracle := newReplica(t, env, c, "oracle")
	sess := oracle.Session("")
	replayAll := func(es []binlog.Entry) {
		for _, e := range es {
			if sess.DB() != e.Database {
				if err := sess.Use(e.Database); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sess.Replay(e.LoggedWrite); err != nil {
				t.Fatal(err)
			}
		}
	}
	replayAll(entries[:warm])
	start = mallocs()
	replayAll(entries[warm:])
	perReplay := float64(mallocs()-start) / measured

	perEvent := float64(total) / float64(shipped)
	t.Logf("%.3f objects per shipped event, %.3f of them in Session.Replay, %.3f outside", perEvent, perReplay, perEvent-perReplay)
	// Measured 5.85 in Replay and 0.001 outside (the log's own growth); the
	// parent's stream took 4.0 outside and 3.0 more to run its USE statements.
	if perReplay > 10 {
		t.Errorf("Session.Replay allocates %.2f objects per entry, ceiling 10", perReplay)
	}
	if outside := perEvent - perReplay; outside > 0.05 {
		t.Errorf("%.3f objects per shipped event outside Session.Replay, want 0", outside)
	}
}
