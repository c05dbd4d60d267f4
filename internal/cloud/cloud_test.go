package cloud

import (
	"math"
	"testing"
	"time"

	"cloudrepl/internal/sim"
)

func testCloud(seed int64) (*sim.Env, *Cloud) {
	env := sim.NewEnv(seed)
	return env, New(env, DefaultConfig())
}

func TestLaunchAssignsIdentity(t *testing.T) {
	_, c := testCloud(1)
	a := c.Launch("master", Small, Placement{USWest1, "a"})
	b := c.Launch("slave1", Small, Placement{USWest1, "a"})
	if a.ID == b.ID {
		t.Fatal("instances share an ID")
	}
	if a.Place.String() != "us-west-1a" {
		t.Fatalf("placement = %s, want us-west-1a", a.Place)
	}
	if len(c.Instances()) != 2 {
		t.Fatalf("instances = %d, want 2", len(c.Instances()))
	}
}

func TestSpeedFactorHeterogeneity(t *testing.T) {
	_, c := testCloud(7)
	var sum, sumsq float64
	const n = 4000
	for i := 0; i < n; i++ {
		inst := c.Launch("x", Small, Placement{USWest1, "a"})
		sum += inst.SpeedFactor
		sumsq += inst.SpeedFactor * inst.SpeedFactor
	}
	mean := sum / n
	cov := math.Sqrt(sumsq/n-mean*mean) / mean
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("mean speed factor %v, want ≈1", mean)
	}
	if math.Abs(cov-0.21) > 0.05 {
		t.Fatalf("speed CoV %v, want ≈0.21 (Schad et al.)", cov)
	}
}

func TestCPUModelSampling(t *testing.T) {
	env := sim.NewEnv(3)
	c := New(env, Config{CPUModels: []CPUModel{XeonE5430, XeonE5507}})
	seen := map[string]int{}
	for i := 0; i < 200; i++ {
		inst := c.Launch("x", Small, Placement{USWest1, "a"})
		seen[inst.CPUModel.Name]++
		if inst.SpeedFactor != inst.CPUModel.Factor {
			t.Fatalf("speed factor %v != model factor %v", inst.SpeedFactor, inst.CPUModel.Factor)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("sampled models %v, want both", seen)
	}
}

func TestHomogeneousWhenCoVZero(t *testing.T) {
	env := sim.NewEnv(3)
	c := New(env, Config{})
	for i := 0; i < 10; i++ {
		if f := c.Launch("x", Small, Placement{USWest1, "a"}).SpeedFactor; f != 1 {
			t.Fatalf("speed factor = %v with CoV 0, want 1", f)
		}
	}
}

func TestWorkScalesWithInstanceSpeed(t *testing.T) {
	env := sim.NewEnv(3)
	c := New(env, Config{})
	small := c.Launch("small", Small, Placement{USWest1, "a"})
	large := c.Launch("large", Large, Placement{USWest1, "a"})
	var smallDone, largeDone sim.Time
	env.Go("onSmall", func(p *sim.Proc) {
		small.Work(p, 100*time.Millisecond)
		smallDone = p.Now()
	})
	env.Go("onLarge", func(p *sim.Proc) {
		large.Work(p, 100*time.Millisecond)
		largeDone = p.Now()
	})
	env.Run()
	if smallDone != 100*time.Millisecond {
		t.Fatalf("small finished at %v, want 100ms", smallDone)
	}
	if largeDone != 50*time.Millisecond { // 2 ECU per core
		t.Fatalf("large finished at %v, want 50ms", largeDone)
	}
}

func TestWorkQueuesOnVCPUs(t *testing.T) {
	env := sim.NewEnv(3)
	c := New(env, Config{})
	inst := c.Launch("small", Small, Placement{USWest1, "a"}) // 1 vCPU
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		env.Go("job", func(p *sim.Proc) {
			inst.Work(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	if finish[2] != 30*time.Millisecond {
		t.Fatalf("3rd job finished at %v, want serialized 30ms", finish[2])
	}
}

func TestTerminatedInstanceRejectsWork(t *testing.T) {
	env := sim.NewEnv(3)
	c := New(env, Config{})
	inst := c.Launch("x", Small, Placement{USWest1, "a"})
	inst.Terminate()
	if inst.Up() {
		t.Fatal("instance still up after Terminate")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic working on terminated instance")
		}
		env.Shutdown()
	}()
	env.Go("job", func(p *sim.Proc) { inst.Work(p, time.Millisecond) })
	env.Run()
}

func TestRestart(t *testing.T) {
	env := sim.NewEnv(3)
	c := New(env, Config{})
	inst := c.Launch("x", Small, Placement{USWest1, "a"})
	inst.Terminate()
	inst.Restart()
	if !inst.Up() {
		t.Fatal("instance down after Restart")
	}
}

func TestLatencyClasses(t *testing.T) {
	lat := DefaultLatencies()
	a := Placement{USWest1, "a"}
	b := Placement{USWest1, "b"}
	eu := Placement{EUWest1, "a"}
	other := Placement{APNortheast1, "b"}
	if d := lat.Base(a, a); d != 16*time.Millisecond {
		t.Fatalf("same zone = %v, want 16ms", d)
	}
	if d := lat.Base(a, b); d != 21*time.Millisecond {
		t.Fatalf("cross zone = %v, want 21ms", d)
	}
	if d := lat.Base(a, eu); d != 173*time.Millisecond {
		t.Fatalf("us-west↔eu-west = %v, want 173ms", d)
	}
	if d := lat.Base(eu, a); d != 173*time.Millisecond {
		t.Fatalf("reverse pair lookup = %v, want 173ms", d)
	}
	if d := lat.Base(eu, other); d != lat.CrossRegion {
		t.Fatalf("unlisted pair = %v, want CrossRegion default", d)
	}
}

func TestPingMatchesPaperRTTs(t *testing.T) {
	env := sim.NewEnv(11)
	c := New(env, DefaultConfig())
	master := Placement{USWest1, "a"}
	cases := []struct {
		name    string
		peer    Placement
		halfRTT time.Duration
	}{
		{"same zone", Placement{USWest1, "a"}, 16 * time.Millisecond},
		{"different zone", Placement{USWest1, "b"}, 21 * time.Millisecond},
		{"different region", Placement{EUWest1, "a"}, 173 * time.Millisecond},
	}
	for _, tc := range cases {
		tc := tc
		env.Go("ping", func(p *sim.Proc) {
			st := Ping(p, c.Network(), master, tc.peer, 1200, time.Second)
			got := st.Mean / 2
			if math.Abs(float64(got-tc.halfRTT)) > 0.05*float64(tc.halfRTT) {
				t.Errorf("%s: mean half-RTT %v, want ≈%v", tc.name, got, tc.halfRTT)
			}
		})
	}
	env.Run()
}

// TestPipeSteadyStateAllocs: one message in flight at a time — the binlog
// stream of a master that is not saturated — crosses the pipe and its
// delivery queue without allocating, also after a partition has backed the
// pipe up and healed.
func TestPipeSteadyStateAllocs(t *testing.T) {
	env := sim.NewEnv(5)
	net := NewNetwork(env, DefaultLatencies())
	a, b := Placement{USWest1, "a"}, Placement{EUWest1, "a"}
	q := sim.NewQueue[int](env, "relay")
	pipe := NewPipe(net, a, b, q)
	delivered := 0
	env.Go("receiver", func(p *sim.Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			delivered++
		}
	})
	net.Partition(a, b)
	for i := 0; i < 20000; i++ {
		pipe.Send(i)
	}
	env.RunUntil(env.Now() + time.Second)
	if pipe.pending.Len() != 20000 {
		t.Fatalf("%d in flight behind the partition, want 20000", pipe.pending.Len())
	}
	net.Heal(a, b)
	env.Run()
	if pipe.pending.Len() != 0 || delivered != 20000 {
		t.Fatalf("%d in flight, %d delivered after heal", pipe.pending.Len(), delivered)
	}
	cycle := func() {
		pipe.Send(1)
		env.Run()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("Send + pump + Get allocates %.2f objects; want 0", allocs)
	}
	q.Close()
	env.Run()
}

func TestPipePreservesOrderDespiteJitter(t *testing.T) {
	env := sim.NewEnv(5)
	lat := DefaultLatencies()
	lat.JitterSigma = 0.8 // violent jitter
	net := NewNetwork(env, lat)
	q := sim.NewQueue[int](env, "relay")
	pipe := NewPipe(net, Placement{USWest1, "a"}, Placement{EUWest1, "a"}, q)
	env.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			pipe.Send(i)
			p.Sleep(time.Millisecond)
		}
	})
	var got []int
	env.Go("receiver", func(p *sim.Proc) {
		for len(got) < 200 {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	env.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery out of order at %d: %v", i, v)
		}
	}
}

func TestSendDelaysDelivery(t *testing.T) {
	env := sim.NewEnv(5)
	lat := DefaultLatencies()
	lat.JitterSigma = 0
	net := NewNetwork(env, lat)
	var at sim.Time
	Unicast(net, Placement{USWest1, "a"}, Placement{USWest1, "b"}, func() { at = env.Now() })
	env.Run()
	if at != 21*time.Millisecond {
		t.Fatalf("delivered at %v, want 21ms", at)
	}
}

func TestTransitBlocksCaller(t *testing.T) {
	env := sim.NewEnv(5)
	lat := DefaultLatencies()
	lat.JitterSigma = 0
	net := NewNetwork(env, lat)
	var at sim.Time
	env.Go("client", func(p *sim.Proc) {
		if !net.TransitTimeout(p, Placement{USWest1, "a"}, Placement{EUWest1, "a"}, 0) {
			t.Error("transit over a healthy path reported a partition")
		}
		at = p.Now()
	})
	env.Run()
	if at != 173*time.Millisecond {
		t.Fatalf("transit took %v, want 173ms", at)
	}
}

func TestClocksDifferAcrossInstances(t *testing.T) {
	env, c := testCloud(9)
	a := c.Launch("a", Small, Placement{USWest1, "a"})
	b := c.Launch("b", Small, Placement{USWest1, "a"})
	env.RunUntil(env.Now() + time.Minute)
	if a.Clock.Now() == b.Clock.Now() {
		t.Fatal("two instances report identical clocks; offsets/drift not applied")
	}
}

func TestMeasureSpeedDetectsSlowInstance(t *testing.T) {
	env := sim.NewEnv(13)
	c := New(env, Config{CPUModels: []CPUModel{XeonE5507}})
	slow := c.Launch("slow", Small, Placement{USWest1, "a"})
	cFast := New(env, Config{})
	fast := cFast.Launch("fast", Small, Placement{USWest1, "a"})
	var slowSpeed, fastSpeed float64
	env.Go("probe", func(p *sim.Proc) {
		slowSpeed = MeasureSpeed(p, slow, 10)
		fastSpeed = MeasureSpeed(p, fast, 10)
	})
	env.Run()
	if math.Abs(slowSpeed-XeonE5507.Factor) > 0.01 {
		t.Fatalf("slow speed = %v, want %v", slowSpeed, XeonE5507.Factor)
	}
	if math.Abs(fastSpeed-1) > 0.01 {
		t.Fatalf("fast speed = %v, want 1", fastSpeed)
	}
}
