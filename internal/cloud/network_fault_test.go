package cloud

import (
	"testing"
	"time"

	"cloudrepl/internal/sim"
)

func quietNet(seed int64) (*sim.Env, *Network) {
	env := sim.NewEnv(seed)
	lat := DefaultLatencies()
	lat.JitterSigma = 0
	return env, NewNetwork(env, lat)
}

func TestPartitionBlocksPipeUntilHeal(t *testing.T) {
	env, net := quietNet(1)
	a := Placement{USWest1, "a"}
	b := Placement{USWest1, "b"}
	net.Partition(a, b)
	if net.Reachable(a, b) {
		t.Fatal("partitioned path reported reachable")
	}

	q := sim.NewQueue[int](env, "relay")
	pipe := NewPipe(net, a, b, q)
	for i := 0; i < 3; i++ {
		pipe.Send(i)
	}

	var got []int
	var times []sim.Time
	env.Go("receiver", func(p *sim.Proc) {
		for len(got) < 3 {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
			times = append(times, p.Now())
		}
	})
	env.Schedule(10*time.Second, func() { net.Heal(a, b) })
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()

	if len(got) != 3 {
		t.Fatalf("delivered %d of 3 messages across the heal", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated after heal: %v", got)
		}
	}
	for _, at := range times {
		if at < 10*time.Second {
			t.Fatalf("message delivered at %v, before the heal", at)
		}
	}
}

func TestUnicastDroppedDuringPartition(t *testing.T) {
	env, net := quietNet(2)
	a := Placement{USWest1, "a"}
	b := Placement{USWest1, "b"}
	net.Partition(a, b)

	delivered := 0
	Unicast(net, a, b, func() { delivered++ })
	env.RunUntil(time.Minute)
	if delivered != 0 {
		t.Fatal("datagram crossed a partitioned path")
	}

	net.Heal(a, b)
	Unicast(net, a, b, func() { delivered++ })
	env.RunUntil(2 * time.Minute)
	if delivered != 1 {
		t.Fatalf("delivered = %d after heal, want 1", delivered)
	}
	env.Stop()
	env.Shutdown()
}

func TestSpikeLatencyAddsDelay(t *testing.T) {
	env, net := quietNet(3)
	a := Placement{USWest1, "a"}
	b := Placement{USWest1, "b"}
	// Base one-way a→b is 21 ms with jitter off (TestSendDelaysDelivery).
	net.SpikeLatency(a, b, 100*time.Millisecond, 0)

	var at sim.Time
	Unicast(net, a, b, func() { at = env.Now() })
	env.Run()
	if at != 121*time.Millisecond {
		t.Fatalf("spiked delivery at %v, want 121ms", at)
	}

	net.ClearSpike(a, b)
	if f := net.Fault(a, b); f.ExtraLatency != 0 || f.ExtraJitterSigma != 0 {
		t.Fatalf("fault survives ClearSpike: %+v", f)
	}
	env.Shutdown()
}

func TestTransitTimeoutOnPartition(t *testing.T) {
	env, net := quietNet(4)
	a := Placement{USWest1, "a"}
	b := Placement{USWest1, "b"}
	net.Partition(a, b)

	var ok bool
	var took sim.Time
	env.Go("client", func(p *sim.Proc) {
		t0 := p.Now()
		ok = net.TransitTimeout(p, a, b, 2*time.Second)
		took = p.Now() - t0
	})
	env.Run()
	if ok {
		t.Fatal("transit over a partition reported success")
	}
	if took != 2*time.Second {
		t.Fatalf("timed out after %v, want the 2s timeout", took)
	}

	net.Heal(a, b)
	env.Go("client2", func(p *sim.Proc) {
		t0 := p.Now()
		ok = net.TransitTimeout(p, a, b, 2*time.Second)
		took = p.Now() - t0
	})
	env.Run()
	if !ok || took != 21*time.Millisecond {
		t.Fatalf("healed transit: ok=%v took=%v, want 21ms success", ok, took)
	}
	env.Shutdown()
}

func TestAwaitUpParksAcrossRestart(t *testing.T) {
	env, c := testCloud(5)
	inst := c.Launch("node", Small, Placement{USWest1, "a"})
	inst.Terminate()

	var resumed sim.Time
	env.Go("waiter", func(p *sim.Proc) {
		inst.AwaitUp(p)
		resumed = p.Now()
	})
	env.Schedule(5*time.Second, func() { inst.Restart() })
	env.Run()
	if resumed != 5*time.Second {
		t.Fatalf("AwaitUp resumed at %v, want at the restart (5s)", resumed)
	}
	env.Shutdown()
}

func TestAwaitUpReturnsImmediatelyWhenUp(t *testing.T) {
	env, c := testCloud(6)
	inst := c.Launch("node", Small, Placement{USWest1, "a"})
	var resumed sim.Time
	env.Go("waiter", func(p *sim.Proc) {
		inst.AwaitUp(p)
		resumed = p.Now()
	})
	env.Run()
	if resumed != 0 {
		t.Fatalf("AwaitUp on a live instance blocked until %v", resumed)
	}
	env.Shutdown()
}
