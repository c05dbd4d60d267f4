package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestResourceSerializesWork(t *testing.T) {
	env := NewEnv(1)
	cpu := NewResource(env, "cpu", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		env.Go("job", func(p *Proc) {
			cpu.Use(p, 100*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	want := []Time{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	for i, w := range want {
		if finish[i] != w {
			t.Fatalf("job %d finished at %v, want %v", i, finish[i], w)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	env := NewEnv(1)
	cpu := NewResource(env, "cpu", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		env.Go("job", func(p *Proc) {
			cpu.Use(p, 100*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	// Two servers: jobs finish pairwise at 100ms and 200ms.
	want := []Time{100 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 200 * time.Millisecond}
	for i, w := range want {
		if finish[i] != w {
			t.Fatalf("job %d finished at %v, want %v", i, finish[i], w)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "r", 1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		env.Go("job", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // stagger arrivals
			r.acquire(p, false)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.release()
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order %v not FIFO", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	env := NewEnv(1)
	cpu := NewResource(env, "cpu", 1)
	env.Go("halfload", func(p *Proc) {
		for i := 0; i < 10; i++ {
			cpu.Use(p, 50*time.Millisecond)
			p.Sleep(50 * time.Millisecond)
		}
	})
	env.Run()
	if u := cpu.Utilization(); math.Abs(u-0.5) > 0.01 {
		t.Fatalf("utilization = %v, want ≈0.5", u)
	}
}

func TestResourceAvgWait(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "r", 1)
	// Two jobs arrive together; second waits 100ms. Mean over 2 acquires = 50ms.
	var waited time.Duration
	for i := 0; i < 2; i++ {
		env.Go("job", func(p *Proc) {
			r.Use(p, 100*time.Millisecond)
			waited += p.Now() - 100*time.Millisecond
		})
	}
	env.Run()
	if w := waited / 2; w != 50*time.Millisecond {
		t.Fatalf("mean wait = %v, want 50ms", w)
	}
}

func TestResourceResetStats(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "r", 1)
	env.Go("job", func(p *Proc) { r.Use(p, time.Second) })
	env.Run()
	r.ResetStats()
	env.RunUntil(env.Now() + time.Second) // idle second
	if u := r.Utilization(); u != 0 {
		t.Fatalf("utilization after reset = %v, want 0", u)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on releasing an idle resource")
		}
	}()
	r.release()
}

func TestResourceInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	NewResource(NewEnv(1), "bad", 0)
}

// Property: for any mix of job service times on a single-server resource,
// total busy time equals the sum of service times, the resource never holds
// more than its capacity, and every job eventually completes.
func TestResourceConservationProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		env := NewEnv(seed)
		capacity := 1 + int(uint(seed)%3)
		r := NewResource(env, "r", capacity)
		var total time.Duration
		completed := 0
		overCap := false
		for _, v := range raw {
			service := time.Duration(v%5000) * time.Microsecond
			total += service
			env.Go("job", func(p *Proc) {
				p.Sleep(Exp(p.Rand(), time.Millisecond))
				r.acquire(p, false)
				if r.inUse > r.Cap() {
					overCap = true
				}
				p.Sleep(service)
				r.release()
				completed++
			})
		}
		env.Run()
		if overCap {
			t.Logf("capacity exceeded")
			return false
		}
		if completed != len(raw) {
			t.Logf("completed %d of %d", completed, len(raw))
			return false
		}
		busy := r.busyIntegral // seconds·servers
		want := total.Seconds()
		if math.Abs(busy-want) > 1e-6*math.Max(1, want) {
			t.Logf("busy integral %v, want %v", busy, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireHighJumpsQueue(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "cpu", 1)
	var order []string
	env.Go("holder", func(p *Proc) {
		r.Use(p, 10*time.Millisecond)
	})
	for i := 0; i < 3; i++ {
		i := i
		env.Go("normal", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			r.acquire(p, false)
			order = append(order, "normal")
			p.Sleep(time.Millisecond)
			r.release()
		})
	}
	env.Go("urgent", func(p *Proc) {
		p.Sleep(5 * time.Millisecond) // arrives last, behind 3 waiters
		r.acquire(p, true)
		order = append(order, "urgent")
		p.Sleep(time.Millisecond)
		r.release()
	})
	env.Run()
	if len(order) != 4 || order[0] != "urgent" {
		t.Fatalf("grant order %v; high priority should be served first", order)
	}
}

func TestUseHighPreservesAccounting(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "cpu", 1)
	env.Go("a", func(p *Proc) { r.UseHigh(p, 40*time.Millisecond) })
	env.Go("b", func(p *Proc) { r.Use(p, 60*time.Millisecond) })
	env.Run()
	if got := r.busyIntegral; got < 0.099 || got > 0.101 {
		t.Fatalf("busy integral %v, want ≈0.1s", got)
	}
	if r.inUse != 0 {
		t.Fatalf("%d slot(s) held after quiesce", r.inUse)
	}
}
