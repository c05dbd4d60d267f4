package repl

import (
	"fmt"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func mmRig(t *testing.T, seed int64, nNodes int) (*sim.Env, *MultiMaster) {
	t.Helper()
	env := sim.NewEnv(seed)
	lat := cloud.DefaultLatencies()
	lat.JitterSigma = 0
	c := cloud.New(env, cloud.Config{})
	net := cloud.NewNetwork(env, lat) // jitter-free, in place of the provider's own
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	var servers []*server.DBServer
	for i := 0; i < nNodes; i++ {
		srv := server.New(env, fmt.Sprintf("node%d", i), c.Launch(fmt.Sprintf("node%d", i), cloud.Small, place), server.DefaultCostModel())
		sess := srv.Session("")
		for _, sql := range []string{
			"CREATE DATABASE app",
			"CREATE TABLE app.kv (k BIGINT PRIMARY KEY, v VARCHAR(40))",
		} {
			if _, err := srv.ExecFree(sess, sql); err != nil {
				t.Fatal(err)
			}
		}
		servers = append(servers, srv)
	}
	return env, NewMultiMaster(env, net, servers, place)
}

func TestMultiMasterAllNodesAcceptWrites(t *testing.T) {
	env, mm := mmRig(t, 1, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Go("client", func(p *sim.Proc) {
			if err := mm.Node(i).ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (?, ?)",
				sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("from-node-%d", i))); err != nil {
				t.Errorf("write on node %d: %v", i, err)
			}
		})
	}
	env.RunUntil(time.Minute)
	for i, n := range mm.Nodes() {
		set, err := n.Srv.Session("app").Query("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if set.Rows[0][0].Int() != 3 {
			t.Fatalf("node %d has %v rows, want all 3 writes", i, set.Rows[0][0])
		}
		if n.ApplyErrors() != 0 {
			t.Fatalf("node %d apply errors: %d", i, n.ApplyErrors())
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestMultiMasterConflictsResolveIdentically(t *testing.T) {
	// Two nodes write the same key "concurrently": the total order decides
	// the winner and every node must agree on it.
	env, mm := mmRig(t, 2, 3)
	for i := 0; i < 2; i++ {
		i := i
		env.Go("client", func(p *sim.Proc) {
			mm.Node(i).ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (1, ?)",
				sqlengine.NewString(fmt.Sprintf("writer-%d", i)))
		})
	}
	env.RunUntil(time.Minute)
	var winner string
	for i, n := range mm.Nodes() {
		set, err := n.Srv.Session("app").Query("SELECT v FROM kv WHERE k = 1")
		if err != nil || len(set.Rows) != 1 {
			t.Fatalf("node %d: %v %v", i, set, err)
		}
		v := set.Rows[0][0].Str()
		if winner == "" {
			winner = v
		} else if v != winner {
			t.Fatalf("nodes disagree on conflict winner: %q vs %q", v, winner)
		}
	}
	// Exactly one of the two conflicting inserts succeeded; the other got
	// a duplicate-key error on every node consistently.
	totalErrs := 0
	for _, n := range mm.Nodes() {
		totalErrs += n.ApplyErrors()
	}
	if totalErrs != len(mm.Nodes()) {
		t.Fatalf("apply errors = %d, want exactly one failed statement per node", totalErrs)
	}
	env.Stop()
	env.Shutdown()
}

func TestMultiMasterReadYourWrites(t *testing.T) {
	env, mm := mmRig(t, 3, 2)
	env.Go("client", func(p *sim.Proc) {
		n := mm.Node(1)
		if err := n.ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (42, 'mine')"); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		// ExecWrite returns only after local apply: the next local read
		// must see it.
		set, err := n.ExecRead(p, "app", "SELECT v FROM kv WHERE k = 42")
		if err != nil || len(set.Rows) != 1 {
			t.Errorf("read-your-writes violated: %v %v", set, err)
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

func TestMultiMasterWriteLatencyIncludesOrderingRoundTrip(t *testing.T) {
	// A node in eu-west writing through a us-west sequencer pays at least
	// origin→sequencer + sequencer→origin (2 × 173 ms).
	env := sim.NewEnv(4)
	lat := cloud.DefaultLatencies()
	lat.JitterSigma = 0
	c := cloud.New(env, cloud.Config{})
	net := cloud.NewNetwork(env, lat) // jitter-free, in place of the provider's own
	us := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	eu := cloud.Placement{Region: cloud.EUWest1, Zone: "a"}
	var servers []*server.DBServer
	for i, pl := range []cloud.Placement{us, eu} {
		srv := server.New(env, fmt.Sprintf("node%d", i), c.Launch(fmt.Sprintf("node%d", i), cloud.Small, pl), server.DefaultCostModel())
		sess := srv.Session("")
		srv.ExecFree(sess, "CREATE DATABASE app")
		srv.ExecFree(sess, "CREATE TABLE app.kv (k BIGINT PRIMARY KEY)")
		servers = append(servers, srv)
	}
	mm := NewMultiMaster(env, net, servers, us)
	var took sim.Time
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		if err := mm.Node(1).ExecWrite(p, "app", "INSERT INTO kv (k) VALUES (1)"); err != nil {
			t.Errorf("write: %v", err)
		}
		took = p.Now() - start
	})
	env.RunUntil(time.Minute)
	if took < 346*time.Millisecond {
		t.Fatalf("cross-region multi-master write took %v, below the ordering round trip", took)
	}
	env.Stop()
	env.Shutdown()
}

func TestMultiMasterWriteAmplification(t *testing.T) {
	// Every node applies every write: after W writes, each node's engine
	// must have executed W write statements.
	env, mm := mmRig(t, 5, 3)
	const writes = 10
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			mm.Node(i%3).ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (?, 'x')",
				sqlengine.NewInt(int64(i)))
		}
	})
	env.RunUntil(time.Minute)
	for i, n := range mm.Nodes() {
		set, _ := n.Srv.Session("app").Query("SELECT COUNT(*) FROM kv")
		if set.Rows[0][0].Int() != writes {
			t.Fatalf("node %d applied %v of %d writes", i, set.Rows[0][0], writes)
		}
	}
	env.Stop()
	env.Shutdown()
}

// Every node applies every globally ordered write. The applied texts carry
// their own literals, so parsing them through a node's parse cache would
// leave entries behind for each distinct write, for the life of the engine:
// the cache must stay at the template set however many writes are applied.
func TestMultiMasterApplyKeepsParseCacheBounded(t *testing.T) {
	env, mm := mmRig(t, 4, 3)
	cached := func() (out [3]int) {
		for i, n := range mm.Nodes() {
			out[i] = n.Srv.Eng.CachedStatements()
		}
		return out
	}
	var warm [3]int
	env.Go("client", func(p *sim.Proc) {
		for k := 0; k < 60; k++ {
			if k == 5 {
				warm = cached()
			}
			if err := mm.Node(k%3).ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (?, ?)",
				sqlengine.NewInt(int64(k)), sqlengine.NewString(fmt.Sprintf("v%d", k))); err != nil {
				t.Errorf("write %d: %v", k, err)
			}
		}
	})
	env.RunUntil(10 * time.Minute)
	if got := cached(); got != warm {
		t.Fatalf("parse caches grew from %v to %v over 55 distinct applied writes", warm, got)
	}
	for i, n := range mm.Nodes() {
		if n.AppliedSeq() != 60 || n.ApplyErrors() != 0 {
			t.Fatalf("node %d applied %d writes with %d errors", i, n.AppliedSeq(), n.ApplyErrors())
		}
	}
	env.Stop()
	env.Shutdown()
}
