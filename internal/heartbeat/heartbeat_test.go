package heartbeat

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
)

// hbRig builds master + N slaves with the heartbeat schema, optionally
// with skewed slave clocks.
func hbRig(t *testing.T, seed int64, nSlaves int, slaveOffset time.Duration) (*sim.Env, *repl.Master) {
	t.Helper()
	env := sim.NewEnv(seed)
	lat := cloud.DefaultLatencies()
	lat.JitterSigma = 0
	c := cloud.New(env, cloud.Config{})
	net := cloud.NewNetwork(env, lat) // jitter-free, in place of the provider's own
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	mSrv := server.New(env, "master", c.Launch("m", cloud.Small, place), server.DefaultCostModel())
	if err := Preload(mSrv); err != nil {
		t.Fatal(err)
	}
	m := repl.NewMaster(env, mSrv, net, repl.Async)
	for i := 0; i < nSlaves; i++ {
		inst := c.Launch(fmt.Sprintf("s%d", i), cloud.Small, place)
		inst.Clock.SetOffset(slaveOffset)
		sSrv := server.New(env, fmt.Sprintf("s%d", i), inst, server.DefaultCostModel())
		if err := Preload(sSrv); err != nil {
			t.Fatal(err)
		}
		m.Attach(repl.NewSlave(env, sSrv), repl.Executed{Low: mSrv.Log.LastSeq()})
	}
	return env, m
}

func TestPluginInsertsEverySecond(t *testing.T) {
	env, m := hbRig(t, 1, 1, 0)
	pl := Start(env, m, time.Second)
	env.RunUntil(10500 * time.Millisecond)
	if len(pl.inserted) < 10 || len(pl.inserted) > 11 {
		t.Fatalf("heartbeats in 10.5s: %d", len(pl.inserted))
	}
	pl.Stop()
	env.RunUntil(20 * time.Second)
	env.Stop()
	env.Shutdown()
}

func TestSlaveDelaysArePositiveAndIncludeNetwork(t *testing.T) {
	env, m := hbRig(t, 2, 1, 0)
	pl := Start(env, m, time.Second)
	env.RunUntil(30 * time.Second)
	pl.Stop()
	env.RunUntil(40 * time.Second)
	sl := m.Slaves()[0]
	ids := pl.IDsInWindow(0, 30*time.Second)
	delays, missing, err := SlaveDelays(m, sl, ids)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 0 {
		t.Fatalf("missing = %d on an idle slave", missing)
	}
	if len(delays) != len(ids) {
		t.Fatalf("delays = %d, ids = %d", len(delays), len(ids))
	}
	// Idle path: delay ≈ one-way 16ms + relay + apply (≈41ms apply cost).
	for _, d := range delays {
		if d < 16 || d > 200 {
			t.Fatalf("idle delay %v ms outside plausible range", d)
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestClockSkewPollutesRawDelay(t *testing.T) {
	// A slave whose clock is 10s ahead reports ~10s of spurious delay —
	// the phenomenon that forces the paper's relative measurement.
	env, m := hbRig(t, 3, 1, 10*time.Second)
	pl := Start(env, m, time.Second)
	env.RunUntil(30 * time.Second)
	pl.Stop()
	env.RunUntil(40 * time.Second)
	ids := pl.IDsInWindow(0, 30*time.Second)
	avg, err := AvgDelay(m, m.Slaves()[0], ids)
	if err != nil {
		t.Fatal(err)
	}
	if avg < 9000 || avg > 11000 {
		t.Fatalf("skewed raw delay = %v ms, want ≈10000", avg)
	}
	env.Stop()
	env.Shutdown()
}

func TestAvgDelayAccountsForUnappliedHeartbeats(t *testing.T) {
	env, m := hbRig(t, 4, 1, 0)
	pl := Start(env, m, time.Second)
	env.RunUntil(5 * time.Second)
	sl := m.Slaves()[0]
	sl.Stop() // freeze replication: later heartbeats never apply
	env.RunUntil(30 * time.Second)
	pl.Stop()
	env.RunUntil(31 * time.Second)
	ids := pl.IDsInWindow(0, 30*time.Second)
	delays, missing, err := SlaveDelays(m, sl, ids)
	if err != nil {
		t.Fatal(err)
	}
	if missing == 0 {
		t.Fatal("expected missing heartbeats on a frozen slave")
	}
	if len(delays) == 0 {
		t.Fatal("early heartbeats should have applied")
	}
	env.Stop()
	env.Shutdown()
}

func TestIDsInWindow(t *testing.T) {
	env, m := hbRig(t, 5, 0, 0)
	pl := Start(env, m, time.Second)
	env.RunUntil(20 * time.Second)
	pl.Stop()
	env.Run()
	all := pl.IDsInWindow(0, sim.MaxTime)
	mid := pl.IDsInWindow(5*time.Second, 10*time.Second)
	if len(mid) >= len(all) || len(mid) == 0 {
		t.Fatalf("window filtering broken: %d of %d", len(mid), len(all))
	}
	env.Stop()
	env.Shutdown()
}

func TestPreloadIdempotent(t *testing.T) {
	env := sim.NewEnv(6)
	c := cloud.New(env, cloud.Config{})
	srv := server.New(env, "m", c.Launch("m", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"}), server.DefaultCostModel())
	if err := Preload(srv); err != nil {
		t.Fatal(err)
	}
	if err := Preload(srv); err != nil {
		t.Fatalf("second preload: %v", err)
	}
}

// TestBeatAllocatesNothing: a beat — the INSERT on the master, its commit and
// its binlog entry — allocates 0 objects, counted as testing.AllocsPerRun
// counts: what is left is amortised growth (the binlog, the table's slabs, the
// plugin's id map), well under one object a beat.
func TestBeatAllocatesNothing(t *testing.T) {
	env, m := hbRig(t, 3, 0, 0)
	defer env.Shutdown()
	pl := Start(env, m, time.Second)
	const warm, run = 100 * time.Second, 2000 * time.Second
	env.RunUntil(warm)
	from := len(pl.inserted)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env.RunUntil(warm + run)
	runtime.ReadMemStats(&after)
	beats := uint64(len(pl.inserted) - from)
	if beats < 1000 {
		t.Fatalf("%d heartbeats in %v", beats, run)
	}
	objects := after.Mallocs - before.Mallocs
	t.Logf("%d objects over %d beats: %.3f a beat", objects, beats, float64(objects)/float64(beats))
	if objects/beats != 0 {
		t.Errorf("a beat allocates %.2f objects, want 0", float64(objects)/float64(beats))
	}
	pl.Stop()
	env.RunUntil(warm + run + 2*time.Second)
	env.Stop()
}
