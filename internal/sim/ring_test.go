package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestRingAgainstSlice drives a Ring and a plain slice with the same random
// pushes, pops and peeks — in bursts long enough to grow, wrap and shrink the
// buffer — and holds them to the same answers.
func TestRingAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var r Ring[int]
	var ref []int
	next := 0
	for step := 0; step < 200000; step++ {
		// A slowly drifting bias makes the depth swing between empty and
		// a few thousand instead of hovering near zero.
		bias := 0.5 + 0.4*float64((step/5000)%3-1)
		switch {
		case rng.Float64() < bias:
			r.Push(next)
			ref = append(ref, next)
			next++
		case rng.Intn(4) == 0:
			v, ok := r.Peek()
			if ok != (len(ref) > 0) || (ok && v != ref[0]) {
				t.Fatalf("step %d: Peek = %d, %v; reference holds %d item(s)", step, v, ok, len(ref))
			}
		default:
			v, ok := r.Pop()
			if ok != (len(ref) > 0) || (ok && v != ref[0]) {
				t.Fatalf("step %d: Pop = %d, %v; reference holds %d item(s)", step, v, ok, len(ref))
			}
			if ok {
				ref = ref[1:]
			}
		}
		if r.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(ref))
		}
	}
}

// TestRingRetention holds the ring to what a sliding slice could not promise:
// a slot is zeroed as soon as its item is popped, a buffer a burst grew is
// given back after the burst, and the steady state that follows allocates
// nothing.
func TestRingRetention(t *testing.T) {
	var r Ring[*int]
	const deep = 100000
	for i := 0; i < deep; i++ {
		r.Push(new(int))
	}
	grown := len(r.buf)
	for i := 0; i < deep; i++ {
		r.Pop()
		if i == deep/2 {
			held := 0
			for _, p := range r.buf {
				if p != nil {
					held++
				}
			}
			if held != r.Len() {
				t.Fatalf("%d slots hold a pointer with %d items queued: popped slots are not zeroed", held, r.Len())
			}
		}
	}
	for _, p := range r.buf {
		if p != nil {
			t.Fatal("a drained ring still references an item")
		}
	}
	v := new(int)
	cycle := func() { r.Push(v); r.Pop() }
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady Push+Pop after a drained backlog allocates %.2f objects", allocs)
	}
	if len(r.buf) >= grown/4 {
		t.Fatalf("buffer still %d slots after the %d-deep backlog drained (was %d)", len(r.buf), deep, grown)
	}

	// A depth that keeps coming back is not a burst: the buffer stays.
	for i := 0; i < 100; i++ {
		r.Push(v)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	swing := func() {
		for i := 0; i < 100; i++ {
			r.Push(v)
		}
		for r.Len() > 0 {
			r.Pop()
		}
	}
	if allocs := testing.AllocsPerRun(100, swing); allocs != 0 {
		t.Fatalf("a queue swinging between 0 and 100 allocates %.2f objects per swing", allocs)
	}
}

// TestQueueAgainstSlice is the Queue's property test: random Put, Get (from
// a consumer process), TryGet, Peek and Close against a plain slice.
func TestQueueAgainstSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv(seed)
		q := NewQueue[int](env, "q")
		var ref, got, want []int
		closed := false
		env.Go("consumer", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
				p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		})
		// The consumer takes whatever the driver has not taken first; the
		// reference is therefore checked on order, not on who got what.
		next, maxDepth := 0, 0
		env.Go("driver", func(p *Proc) {
			for step := 0; step < 5000; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					q.Put(next)
					if !closed {
						want = append(want, next)
					}
					next++
				case op < 7:
					if v, ok := q.TryGet(); ok {
						ref = append(ref, v)
					}
				case op < 9:
					pv, pok := q.Peek()
					v, ok := q.TryGet()
					if pok != ok || pv != v {
						t.Errorf("Peek = %d, %v but TryGet = %d, %v", pv, pok, v, ok)
					}
					if ok {
						ref = append(ref, v)
					}
				default:
					if step > 4000 && !closed {
						q.Close()
						closed = true
					}
				}
				if q.Len() > maxDepth {
					maxDepth = q.Len()
				}
				if rng.Intn(3) == 0 {
					p.Sleep(time.Millisecond)
				}
			}
			q.Close()
		})
		env.Run()
		if q.Len() != 0 || q.MaxDepth() < maxDepth {
			t.Fatalf("seed %d: %d item(s) left, MaxDepth %d, observed %d", seed, q.Len(), q.MaxDepth(), maxDepth)
		}
		// Every item put before Close came out exactly once, and each taker
		// saw its items in put order.
		if len(ref)+len(got) != len(want) {
			t.Fatalf("seed %d: %d + %d items taken, %d put", seed, len(ref), len(got), len(want))
		}
		i, j := 0, 0
		for _, v := range want {
			switch {
			case i < len(ref) && ref[i] == v:
				i++
			case j < len(got) && got[j] == v:
				j++
			default:
				t.Fatalf("seed %d: item %d lost or out of order", seed, v)
			}
		}
	}
}

// TestQueueSteadyStateAllocs: a mailbox that swings between empty and one
// item — the relay log of a replica that keeps up — allocates nothing, also
// right after a deep backlog has drained through it.
func TestQueueSteadyStateAllocs(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e, "q")
	e.Go("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	for i := 0; i < 100000; i++ {
		q.Put(i)
	}
	e.Run()
	put := func() { q.Put(1) }
	cycle := func() {
		e.After(time.Millisecond, put)
		e.Run()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("Put+Get cycle allocates %.2f objects; want 0", allocs)
	}
	if q.MaxDepth() != 100000 || q.Len() != 0 {
		t.Fatalf("MaxDepth %d, Len %d", q.MaxDepth(), q.Len())
	}
	q.Close()
	e.Run()
}

// TestResourceSteadyStateAllocs: a single-slot resource with one process
// always waiting behind the holder hands the slot over without allocating.
func TestResourceSteadyStateAllocs(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "cpu", 1)
	rounds := 0
	user := func(p *Proc) {
		for rounds > 0 {
			rounds--
			r.Use(p, time.Millisecond)
		}
	}
	cycle := func() {
		rounds = 10
		e.Go("a", user)
		e.Go("b", user)
		e.Run()
	}
	spawn := func() {
		rounds = 0
		e.Go("a", user)
		e.Go("b", user)
		e.Run()
	}
	cycle()
	// Spawning is the runtime's cost, not the resource's; see
	// TestWaitTimeoutSteadyStateAllocs for why the minima are compared.
	allocs, base := testing.AllocsPerRun(100, cycle), testing.AllocsPerRun(100, spawn)
	for round := 1; round < 64 && (round < 8 || allocs > base); round++ {
		allocs = min(allocs, testing.AllocsPerRun(100, cycle))
		base = min(base, testing.AllocsPerRun(100, spawn))
	}
	if allocs > base {
		t.Fatalf("ten contended Use calls allocate %.1f objects vs %.1f for the spawns alone", allocs, base)
	}
}
