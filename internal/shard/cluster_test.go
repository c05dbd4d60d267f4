package shard

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"cloudrepl/internal/chaos"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// kvPreload builds the partitioned preload for a tiny kv schema: one
// sharded table and one global lookup table.
func kvPreload(rows int) func(owns func(table string, key int64) bool) func(*server.DBServer) error {
	return func(owns func(table string, key int64) bool) func(*server.DBServer) error {
		return func(srv *server.DBServer) error {
			sess := srv.Session("")
			for _, sql := range []string{
				"CREATE DATABASE app",
				"USE app",
				"CREATE TABLE kv (id BIGINT PRIMARY KEY, v VARCHAR(20))",
				"CREATE TABLE g (id BIGINT PRIMARY KEY, name VARCHAR(20))",
			} {
				if _, err := srv.ExecFree(sess, sql); err != nil {
					return err
				}
			}
			for i := 1; i <= 3; i++ {
				if _, err := srv.ExecFree(sess, "INSERT INTO g (id, name) VALUES (?, ?)",
					sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("g%d", i))); err != nil {
					return err
				}
			}
			for i := 1; i <= rows; i++ {
				if !owns("kv", int64(i)) {
					continue
				}
				if _, err := srv.ExecFree(sess, "INSERT INTO kv (id, v) VALUES (?, 'seed')",
					sqlengine.NewInt(int64(i))); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

func newShard(t *testing.T, seed int64, cells, rows int) (*sim.Env, *cloud.Cloud, *Cluster) {
	t.Helper()
	return newShardSlots(t, seed, cells, 0, rows)
}

// newShardSlots is newShard on a map of slots hash slots (0: numSlots).
func newShardSlots(t *testing.T, seed int64, cells, slots, rows int) (*sim.Env, *cloud.Cloud, *Cluster) {
	t.Helper()
	env := sim.NewEnv(seed)
	cl := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	sc, err := New(env, cl, Config{
		Cells: cells,
		slots: slots,
		Keyspace: Keyspace{
			Key:    map[string]string{"kv": "id"},
			Global: map[string]bool{"g": true},
		},
		Database: "app",
		Cell: cluster.Config{
			Mode:   repl.Async,
			Cost:   server.DefaultCostModel(),
			Master: cluster.NodeSpec{Place: place},
			Slaves: []cluster.NodeSpec{{Place: place}},
		},
		PartitionedPreload: kvPreload(rows),
		Routing:            Routing{ClientPlace: place},
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, cl, sc
}

// keyCensus flattens per-cell key multisets into total count per key.
func keyCensus(t *testing.T, sc *Cluster, table string) map[int64]int {
	t.Helper()
	sets, err := sc.Keys(table)
	if err != nil {
		t.Fatal(err)
	}
	total := make(map[int64]int)
	for _, set := range sets {
		for k, n := range set {
			total[k] += n
		}
	}
	return total
}

// assertExactlyOnce fails unless each of want keys appears exactly once
// across all cells, with no extras.
func assertExactlyOnce(t *testing.T, sc *Cluster, table string, want map[int64]bool) {
	t.Helper()
	got := keyCensus(t, sc, table)
	for k := range want {
		switch got[k] {
		case 1:
		case 0:
			t.Errorf("%s key %d lost", table, k)
		default:
			t.Errorf("%s key %d duplicated %d times", table, k, got[k])
		}
	}
	for k, n := range got {
		if !want[k] {
			t.Errorf("%s key %d unexpected (count %d)", table, k, n)
		}
	}
}

func TestPartitionedPreloadExactlyOnce(t *testing.T) {
	const rows = 200
	env, _, sc := newShard(t, 1, 4, rows)
	env.RunUntil(time.Second)
	want := make(map[int64]bool, rows)
	for i := 1; i <= rows; i++ {
		want[int64(i)] = true
	}
	assertExactlyOnce(t, sc, "kv", want)
	// Every cell holds the full global table.
	for _, cell := range sc.Cells() {
		srv := cell.Clu.Master().Srv
		res, err := srv.ExecFree(srv.Session("app"), "SELECT COUNT(*) AS n FROM g")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Set.Rows[0][0].Int(); n != 3 {
			t.Errorf("cell %d has %d global rows, want 3", cell.ID, n)
		}
	}
	// Instance names are per-cell namespaced.
	if sc.Cell(2).Clu.Master().Srv.Name != "cell2/master" {
		t.Errorf("master name = %q", sc.Cell(2).Clu.Master().Srv.Name)
	}
	env.Stop()
	env.Shutdown()
}

func TestRoutedExecEndToEnd(t *testing.T) {
	const rows = 60
	env, _, sc := newShard(t, 2, 3, rows)
	failed := false
	env.Go("app", func(p *sim.Proc) {
		conn := sc.Connect("app")
		// Single-key reads hit every preloaded row wherever it lives.
		for i := 1; i <= rows; i++ {
			set, err := conn.Query(p, "SELECT v FROM kv WHERE id = ?", sqlengine.NewInt(int64(i)))
			if err != nil || len(set.Rows) != 1 {
				t.Errorf("id %d: err=%v rows=%v", i, err, set)
				failed = true
				return
			}
		}
		// Scatter read: globally ordered union of all cells.
		set, err := conn.Query(p, "SELECT id FROM kv ORDER BY id")
		if err != nil {
			t.Errorf("scatter: %v", err)
			failed = true
			return
		}
		if len(set.Rows) != rows {
			t.Errorf("scatter rows = %d, want %d", len(set.Rows), rows)
			failed = true
		}
		for i, r := range set.Rows {
			if r[0].Int() != int64(i+1) {
				t.Errorf("scatter row %d = %d, want %d", i, r[0].Int(), i+1)
				failed = true
				return
			}
		}
		// Scatter aggregate.
		set, err = conn.Query(p, "SELECT COUNT(*) AS n FROM kv")
		if err != nil || set.Rows[0][0].Int() != rows {
			t.Errorf("count: err=%v set=%v", err, set)
			failed = true
		}
		// Routed write, read-back through the router.
		if _, err := conn.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'new')", sqlengine.NewInt(int64(rows+1))); err != nil {
			t.Errorf("insert: %v", err)
			failed = true
		}
		set, err = conn.Query(p, "SELECT v FROM kv WHERE id = ?", sqlengine.NewInt(int64(rows+1)))
		if err != nil || len(set.Rows) != 1 || set.Rows[0][0].Str() != "new" {
			t.Errorf("read-back: err=%v set=%v", err, set)
			failed = true
		}
		// Global-table read and write.
		if _, err := conn.Query(p, "SELECT name FROM g WHERE id = 1"); err != nil {
			t.Errorf("global read: %v", err)
			failed = true
		}
		if _, err := conn.Exec(p, "INSERT INTO g (id, name) VALUES (9, 'g9')"); err != nil {
			t.Errorf("global write: %v", err)
			failed = true
		}
	})
	env.RunUntil(5 * time.Minute)
	if failed {
		t.FailNow()
	}
	st := sc.Stats()
	if st.SingleKey == 0 || st.ScatterOps == 0 || st.AnyReads == 0 || st.Broadcasts == 0 {
		t.Fatalf("router stats missing a class: %+v", st)
	}
	if st.ScatterLegs < st.ScatterOps*3 {
		t.Fatalf("scatter legs %d < ops %d × 3 cells", st.ScatterLegs, st.ScatterOps)
	}
	if st.Errors != 0 {
		t.Fatalf("router errors: %d", st.Errors)
	}
	// The broadcast write landed on every cell.
	for _, cell := range sc.Cells() {
		srv := cell.Clu.Master().Srv
		res, err := srv.ExecFree(srv.Session("app"), "SELECT COUNT(*) AS n FROM g")
		if err != nil || res.Set.Rows[0][0].Int() != 4 {
			t.Fatalf("cell %d global rows: err=%v res=%v", cell.ID, err, res)
		}
	}
	env.Stop()
	env.Shutdown()
}

// TestSplitOnline runs a live split under continuous single-key writes and
// scatter reads, then checks that no row was lost or duplicated, ownership
// moved, and the write-unavailability window stayed small.
func TestSplitOnline(t *testing.T) {
	const rows = 150
	env, _, sc := newShard(t, 3, 1, rows)
	nextID := int64(rows)
	written := map[int64]bool{}
	stop := false
	for w := 0; w < 4; w++ {
		env.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			conn := sc.Connect("app")
			for i := 0; !stop; i++ {
				nextID++
				id := nextID
				if _, err := conn.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'live')", sqlengine.NewInt(id)); err != nil {
					t.Errorf("live insert %d: %v", id, err)
					return
				}
				written[id] = true
				// Scatter occasionally: the read load must leave the source
				// slaves apply headroom, or the cutover (correctly) refuses
				// to freeze writes behind slaves that cannot catch up.
				if i%4 == 0 {
					if _, err := conn.Query(p, "SELECT COUNT(*) AS n FROM kv"); err != nil {
						t.Errorf("live scatter: %v", err)
						return
					}
				}
				p.Sleep(100 * time.Millisecond)
			}
		})
	}
	var rep *SplitReport
	env.Go("splitter", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		r, err := sc.Split(p)
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		rep = r
		p.Sleep(2 * time.Second)
		stop = true
	})
	env.RunUntil(10 * time.Minute)
	if t.Failed() {
		t.FailNow()
	}
	if rep == nil {
		t.Fatal("split never completed")
	}
	if rep.Aborted {
		t.Fatalf("split aborted: %s", rep.Err)
	}
	if sc.NumCells() != 2 || sc.Map().Version() != 2 {
		t.Fatalf("cells=%d version=%d after split", sc.NumCells(), sc.Map().Version())
	}
	if rep.MovedRows == 0 {
		t.Fatal("split moved no rows")
	}
	// The barrier (drain + final replay + source cleanup) must stay well
	// under both the copy duration and the clients' ErrWrongShard retry
	// budget (~2.3 s) — otherwise writers would surface errors above.
	if rep.Downtime <= 0 || rep.Downtime > 2*time.Second {
		t.Fatalf("downtime = %v, want (0, 2s]", rep.Downtime)
	}
	if rep.Downtime >= rep.CopyDuration {
		t.Fatalf("downtime %v not << copy %v", rep.Downtime, rep.CopyDuration)
	}
	// Both cells own slots and hold rows.
	loads := sc.Map().CellLoads(1)
	if loads[0] == 0 || loads[1] == 0 {
		t.Fatalf("slot loads after split: %v", loads)
	}
	want := make(map[int64]bool, rows+len(written))
	for i := 1; i <= rows; i++ {
		want[int64(i)] = true
	}
	for id := range written {
		want[id] = true
	}
	assertExactlyOnce(t, sc, "kv", want)
	st := sc.Stats()
	if st.Splits != 1 {
		t.Fatalf("splits = %d", st.Splits)
	}
	// Catch-up replays the source's binlog on the target master. Every
	// replayed text carries its own literals: parsing them through the
	// target's parse cache would leave two entries per replayed write there
	// for the life of the engine.
	cached := sc.Cell(1).Clu.Master().Srv.Eng.CachedStatements()
	t.Logf("replayed %d entries, target caches %d statements", st.ReplayedEntries, cached)
	if st.ReplayedEntries < 10 {
		t.Fatalf("catch-up replayed %d entries: too few to show cache growth", st.ReplayedEntries)
	}
	if cached >= int(st.ReplayedEntries) {
		t.Fatalf("target parse cache holds %d statements after %d replayed writes", cached, st.ReplayedEntries)
	}
	env.Stop()
	env.Shutdown()
}

// TestSplitChaosKillTarget kills the split target's master mid-copy. The
// split must abort, the fresh cell must leave the routing set, writes must
// keep flowing, and no row may be lost or duplicated.
func TestSplitChaosKillTarget(t *testing.T) {
	const rows = 400
	env, cl, sc := newShard(t, 4, 1, rows)
	var splitAt sim.Time
	nextID := int64(rows)
	written := map[int64]bool{}
	stop := false
	env.Go("writer", func(p *sim.Proc) {
		conn := sc.Connect("app")
		for !stop {
			nextID++
			id := nextID
			if _, err := conn.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'live')", sqlengine.NewInt(id)); err != nil {
				t.Errorf("live insert %d: %v", id, err)
				return
			}
			written[id] = true
			p.Sleep(10 * time.Millisecond)
		}
	})
	var rep *SplitReport
	env.Go("splitter", func(p *sim.Proc) {
		splitAt = p.Now()
		r, err := sc.Split(p)
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		rep = r
		p.Sleep(2 * time.Second)
		stop = true
	})
	// Kill the freshly created target master while the copy is running.
	env.Go("killer", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		chaos.Start(env, cl, (&chaos.Schedule{}).Crash(time.Duration(p.Now())+time.Millisecond, "cell1/master"))
	})
	env.RunUntil(10 * time.Minute)
	if t.Failed() {
		t.FailNow()
	}
	if rep == nil {
		t.Fatal("split never returned")
	}
	if !rep.Aborted {
		t.Fatalf("split did not abort (moved %d rows in %v starting %v)", rep.MovedRows, rep.CopyDuration, splitAt)
	}
	if sc.NumCells() != 1 {
		t.Fatalf("cells = %d after aborted split, want 1 (fresh cell retired)", sc.NumCells())
	}
	if sc.Map().Version() != 1 {
		t.Fatalf("map version = %d after aborted split, want 1", sc.Map().Version())
	}
	if sc.Stats().SplitAborts != 1 {
		t.Fatalf("split aborts = %d", sc.Stats().SplitAborts)
	}
	want := make(map[int64]bool, rows+len(written))
	for i := 1; i <= rows; i++ {
		want[int64(i)] = true
	}
	for id := range written {
		want[id] = true
	}
	assertExactlyOnce(t, sc, "kv", want)
	env.Stop()
	env.Shutdown()
}

// TestStaleSnapshotRetriesAfterSplit: a connection created before the split
// keeps routing on its old snapshot; its first statement on a moved key is
// rejected typed, refreshed and retried — never silently misrouted.
func TestStaleSnapshotRetriesAfterSplit(t *testing.T) {
	const rows = 80
	env, _, sc := newShard(t, 5, 1, rows)
	env.Go("app", func(p *sim.Proc) {
		conn := sc.Connect("app") // snapshot at version 1
		if _, err := sc.Split(p); err != nil {
			t.Errorf("split: %v", err)
			return
		}
		// Find a key now owned by the new cell.
		moved := int64(-1)
		for i := 1; i <= rows; i++ {
			if sc.Map().Owner(int64(i)) == 1 {
				moved = int64(i)
				break
			}
		}
		if moved < 0 {
			t.Error("no key moved to cell 1")
			return
		}
		before := sc.Stats().WrongShardRetries
		set, err := conn.Query(p, "SELECT v FROM kv WHERE id = ?", sqlengine.NewInt(moved))
		if err != nil || len(set.Rows) != 1 {
			t.Errorf("stale read of %d: err=%v set=%v", moved, err, set)
			return
		}
		if sc.Stats().WrongShardRetries <= before {
			t.Error("stale snapshot was not corrected through ErrWrongShard")
		}
		if sc.Stats().MapRefreshes == 0 {
			t.Error("no map refresh recorded")
		}
	})
	env.RunUntil(10 * time.Minute)
	env.Stop()
	env.Shutdown()
}

// newSessionShard builds a sharded cluster whose cell proxies enforce the
// Session (read-your-writes) tier.
func newSessionShard(t *testing.T, seed int64, cells, rows int) (*sim.Env, *Cluster) {
	t.Helper()
	env := sim.NewEnv(seed)
	cl := cloud.New(env, cloud.Config{})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	sc, err := New(env, cl, Config{
		Cells: cells,
		Keyspace: Keyspace{
			Key:    map[string]string{"kv": "id"},
			Global: map[string]bool{"g": true},
		},
		Database: "app",
		Cell: cluster.Config{
			Mode:   repl.Async,
			Cost:   server.DefaultCostModel(),
			Master: cluster.NodeSpec{Place: place},
			Slaves: []cluster.NodeSpec{{Place: place}},
		},
		PartitionedPreload: kvPreload(rows),
		Routing:            Routing{ClientPlace: place, Consistency: proxy.Session},
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, sc
}

// hogSlave pins a slave's CPU with competing work until deadline so its
// applier cannot keep up.
func hogSlave(env *sim.Env, sl *repl.Slave, deadline time.Duration) {
	srv := sl.Srv
	for h := 0; h < 2; h++ {
		env.Go("hog", func(p *sim.Proc) {
			for p.Now() < sim.Time(deadline) {
				srv.Inst.Work(p, 50*time.Millisecond)
			}
		})
	}
}

// TestScatterHonorsSessionRYW: a cross-shard scatter read issued right after
// a write used to be able to miss the session's own row — the leg on the
// written cell could be served by a slave that had not applied the write
// yet. With the Session tier the per-cell token minted by the write must
// steer that leg to a caught-up backend (master fallback here, since the
// only slave is starved).
func TestScatterHonorsSessionRYW(t *testing.T) {
	const rows = 60
	env, sc := newSessionShard(t, 11, 3, rows)
	for _, cell := range sc.Cells() {
		hogSlave(env, cell.Clu.Master().Slaves()[0], 30*time.Second)
	}
	env.Go("app", func(p *sim.Proc) {
		conn := sc.Connect("app")
		id := int64(rows + 1)
		if _, err := conn.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'mine')", sqlengine.NewInt(id)); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		// The written cell's slave must still be behind, or the scatter leg
		// would see the row regardless of the token.
		owner := sc.Map().Owner(id)
		if sc.Cell(owner).Clu.Master().Slaves()[0].EventsBehindMaster() == 0 {
			t.Error("test setup: owning cell's slave is not lagging")
		}
		set, err := conn.Query(p, "SELECT id FROM kv ORDER BY id")
		if err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		found := false
		for _, r := range set.Rows {
			if r[0].Int() == id {
				found = true
			}
		}
		if !found {
			t.Error("scatter read right after the write missed the session's own row")
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

// TestSessionRYWAcrossSplit: writes mirrored by the split's dual-write
// window bypass the target cell's proxy, so no session token used to be
// minted there — after the map flipped, a read-your-writes read of a moved
// key could be served by a target slave that had never applied the
// mirrored write. The router now stamps the target cell's token at each
// dual write; with the target's only slave starved throughout, every
// post-flip read of a dual-written key must still find the row.
func TestSessionRYWAcrossSplit(t *testing.T) {
	const rows = 150
	env, sc := newSessionShard(t, 12, 1, rows)
	// Starve the split target's slave from the moment the target cell
	// exists: it holds none of the mirrored writes when the map flips.
	env.Go("hog-watch", func(p *sim.Proc) {
		for sc.NumCells() < 2 {
			p.Sleep(5 * time.Millisecond)
		}
		hogSlave(env, sc.Cell(1).Clu.Master().Slaves()[0], 5*time.Minute)
	})
	splitDone := false
	var rep *SplitReport
	env.Go("splitter", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		r, err := sc.Split(p)
		if err != nil {
			t.Errorf("split: %v", err)
		}
		rep = r
		splitDone = true
	})
	checked := 0
	env.Go("app", func(p *sim.Proc) {
		conn := sc.Connect("app")
		var mirrored []int64
		next := int64(rows)
		for !splitDone {
			next++
			before := sc.Stats().DualWrites
			if _, err := conn.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'live')", sqlengine.NewInt(next)); err != nil {
				t.Errorf("insert %d: %v", next, err)
				return
			}
			if sc.Stats().DualWrites > before {
				mirrored = append(mirrored, next)
			}
			p.Sleep(20 * time.Millisecond)
		}
		if rep == nil || rep.Aborted {
			t.Error("split did not complete")
			return
		}
		// The target's slave must still lag its master, or a stale read
		// could not be told from a correct one.
		if sc.Cell(1).Clu.Master().Slaves()[0].EventsBehindMaster() == 0 {
			t.Error("test setup: target slave caught up before the read-back")
		}
		for _, id := range mirrored {
			if sc.Map().Owner(id) != 1 {
				continue
			}
			checked++
			set, err := conn.Query(p, "SELECT v FROM kv WHERE id = ?", sqlengine.NewInt(id))
			if err != nil {
				t.Errorf("read %d: %v", id, err)
				return
			}
			if len(set.Rows) != 1 || set.Rows[0][0].Str() != "live" {
				t.Errorf("session read of dual-written key %d missed the write after the flip", id)
			}
		}
	})
	env.RunUntil(5 * time.Minute)
	if t.Failed() {
		t.FailNow()
	}
	if sc.Stats().DualWrites == 0 {
		t.Fatal("no dual-writes exercised")
	}
	if checked == 0 {
		t.Fatal("no dual-written key was read back on the new cell")
	}
	env.Stop()
	env.Shutdown()
}

// TestShardDeterminism runs the same seeded scenario twice and requires a
// byte-identical fingerprint of stats, map state and per-cell key sets.
func TestShardDeterminism(t *testing.T) {
	run := func() string {
		const rows = 100
		env, _, sc := newShard(t, 7, 1, rows)
		stop := false
		nextID := int64(rows)
		env.Go("writer", func(p *sim.Proc) {
			conn := sc.Connect("app")
			for !stop {
				nextID++
				if _, err := conn.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'live')", sqlengine.NewInt(nextID)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := conn.Query(p, "SELECT id FROM kv ORDER BY id DESC LIMIT 5"); err != nil {
					t.Errorf("scatter: %v", err)
					return
				}
				p.Sleep(30 * time.Millisecond)
			}
		})
		var rep *SplitReport
		env.Go("splitter", func(p *sim.Proc) {
			p.Sleep(time.Second)
			rep, _ = sc.Split(p)
			p.Sleep(time.Second)
			stop = true
		})
		env.RunUntil(5 * time.Minute)
		sets, err := sc.Keys("kv")
		if err != nil {
			t.Fatal(err)
		}
		fp := fmt.Sprintf("stats=%+v version=%d cells=%d rep=%+v now=%d\n",
			sc.Stats(), sc.Map().Version(), sc.NumCells(), rep, env.Now())
		for i, set := range sets {
			keys := make([]int64, 0, len(set))
			for k := range set {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			fp += fmt.Sprintf("cell%d=%v\n", i, keys)
		}
		env.Stop()
		env.Shutdown()
		return fp
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identically-seeded sharded runs diverged:\n--- run 1:\n%s\n--- run 2:\n%s", a, b)
	}
}
