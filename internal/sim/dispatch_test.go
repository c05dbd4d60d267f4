package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// dispatchOracle drives one Env with a seeded random program and keeps what
// the dispatch order must agree with: which callbacks ran and how often,
// which were cancelled before they could run, and how many events were
// dropped unrun by a cancel.
type dispatchOracle struct {
	e      *Env
	rng    *rand.Rand
	budget int // actions left to the program

	ran       []int    // runs of each callback, by id
	cancelled []bool   // the callback's cancel came before it ran
	cancels   []func() // cancel handles of Schedule'd callbacks, by id
	handles   []int    // ids that have a cancel handle
	dropped   int      // events cancelled before their dispatch

	cpu *Resource
	sig *Signal
}

// oracleNote is a ScheduleDeliver payload that reports as callback id.
type oracleNote struct {
	o  *dispatchOracle
	id int
}

func (n *oracleNote) Deliver() { n.o.fire(n.id) }

// delay draws a delay that is zero more often than not, so most events are
// due at the instant they are pushed and the rest tie on whole milliseconds.
func (o *dispatchOracle) delay() time.Duration {
	return []time.Duration{0, 0, 0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}[o.rng.Intn(7)]
}

func (o *dispatchOracle) newID() int {
	o.ran = append(o.ran, 0)
	o.cancelled = append(o.cancelled, false)
	o.cancels = append(o.cancels, nil)
	return len(o.ran) - 1
}

func (o *dispatchOracle) fire(id int) {
	o.ran[id]++
	if o.rng.Intn(2) == 0 {
		o.act(nil)
	}
}

func (o *dispatchOracle) cancel(id int) {
	if o.ran[id] == 0 && !o.cancelled[id] {
		o.cancelled[id] = true
		o.dropped++
	}
	o.cancels[id]()
}

// act takes one step of the program: from a process when p is set, from a
// callback otherwise.
func (o *dispatchOracle) act(p *Proc) {
	if o.budget <= 0 {
		return
	}
	o.budget--
	e := o.e
	steps := 7
	if p != nil {
		steps = 10
	}
	switch o.rng.Intn(steps) {
	case 0:
		id := o.newID()
		o.cancels[id] = e.Schedule(o.delay(), func() { o.fire(id) })
		o.handles = append(o.handles, id)
	case 1:
		id := o.newID()
		e.After(o.delay(), func() { o.fire(id) })
	case 2:
		id := o.newID()
		e.ScheduleDeliver(o.delay(), &oracleNote{o, id})
	case 3: // cancel an outstanding handle, twice; or one just armed for now
		if len(o.handles) == 0 || o.rng.Intn(3) == 0 {
			id := o.newID()
			o.cancels[id] = e.Schedule(0, func() { o.fire(id) })
			o.cancel(id)
			return
		}
		i := o.rng.Intn(len(o.handles))
		id := o.handles[i]
		o.handles = append(o.handles[:i], o.handles[i+1:]...)
		o.cancel(id)
		o.cancel(id)
	case 4:
		e.Go("child", o.child)
	case 5:
		o.sig.Broadcast()
	case 6: // leave the run mid-instant, with an event due now still queued
		id := o.newID()
		e.After(0, func() { o.fire(id) })
		if o.rng.Intn(4) == 0 {
			e.Stop()
		}
	case 7:
		p.Sleep(o.delay())
	case 8:
		o.cpu.Use(p, o.delay())
	case 9:
		if o.sig.WaitTimeout(p, o.delay()) {
			o.dropped++ // the Broadcast cancelled the timeout
		}
	}
}

// root acts until the program's budget is spent; child takes a few steps.
func (o *dispatchOracle) root(p *Proc) {
	for o.budget > 0 {
		o.act(p)
	}
}

func (o *dispatchOracle) child(p *Proc) {
	for n := 1 + o.rng.Intn(6); n > 0; n-- {
		o.act(p)
	}
}

// TestDispatchIsTotalOrder runs seeded random programs that mix Schedule,
// After and ScheduleDeliver at zero and positive delays with cancels (some of
// an event due at the current instant), Go from callbacks and processes,
// Sleep(0), Resource grants and WaitTimeout(0), and holds every dispatch to
// the kernel's total order: (at, seq) strictly increasing, every event that
// was not cancelled dispatched once, none that was. Between slices of the run
// it asks for RunUntil(t) with t before now, which must dispatch nothing.
func TestDispatchIsTotalOrder(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		e := NewEnv(seed)
		o := &dispatchOracle{e: e, rng: rand.New(rand.NewSource(seed)), budget: 3000,
			cpu: NewResource(e, "cpu", 2), sig: NewSignal(e).Named("sig")}
		var lastAt Time
		var lastSeq uint64
		seen := map[uint64]bool{}
		TraceDispatch(func(at Time, seq, proc uint64) {
			if at < lastAt || at == lastAt && seq <= lastSeq {
				t.Fatalf("seed %d: dispatched (%v, %d) after (%v, %d)", seed, at, seq, lastAt, lastSeq)
			}
			if seen[seq] {
				t.Fatalf("seed %d: seq %d dispatched twice", seed, seq)
			}
			lastAt, lastSeq, seen[seq] = at, seq, true
		})
		for i := 0; i < 8; i++ {
			e.Go("root", o.root)
		}
		for pending(e) > 0 {
			e.RunUntil(e.Now() + 5*time.Millisecond)
			n, now := len(seen), e.Now()
			if now > 0 {
				e.RunUntil(now - 1)
			}
			if len(seen) != n || e.Now() != now {
				t.Fatalf("seed %d: RunUntil(%v) at %v dispatched %d events and left the clock at %v", seed, now-1, now, len(seen)-n, e.Now())
			}
		}
		TraceDispatch(nil)
		if live(e) != 0 {
			t.Fatalf("seed %d: %d processes still live", seed, live(e))
		}
		if got := uint64(len(seen) + o.dropped); got != e.seq {
			t.Fatalf("seed %d: %d dispatched + %d cancelled = %d; want every one of the %d events pushed", seed, len(seen), o.dropped, got, e.seq)
		}
		for id, n := range o.ran {
			if o.cancelled[id] && n != 0 || !o.cancelled[id] && n != 1 {
				t.Fatalf("seed %d: callback %d (cancelled %v) ran %d times", seed, id, o.cancelled[id], n)
			}
		}
		if o.budget > 0 || o.dropped == 0 {
			t.Fatalf("seed %d: the program stopped with %d actions left, %d cancels", seed, o.budget, o.dropped)
		}
		t.Logf("seed %d: %d events dispatched, %d cancelled, %d callbacks, ended at %v", seed, len(seen), o.dropped, len(o.ran), e.Now())
		e.Shutdown()
	}
}

// TestFreshSpawnAllocCeiling: 400 spawns on a fresh Env, its workers out of
// a warm pool, allocate a handful of chunks of Procs and events — not an
// object each, nor a map entry or a calendar bucket — since every start is
// due at the current instant.
func TestFreshSpawnAllocCeiling(t *testing.T) {
	const spawns, want = 400, 10
	body := func(p *Proc) { p.Sleep(time.Second) }
	warm := NewEnv(1)
	for i := 0; i < spawns; i++ {
		warm.Go("user", body)
	}
	warm.Shutdown()
	got := uint64(1 << 62)
	for round := 0; round < 5; round++ {
		e := NewEnv(1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < spawns; i++ {
			e.Go("user", body)
		}
		runtime.ReadMemStats(&m1)
		got = min(got, m1.Mallocs-m0.Mallocs)
		e.Shutdown()
	}
	t.Logf("%d spawns on a fresh Env: %d objects", spawns, got)
	if got > want {
		t.Fatalf("%d spawns on a fresh Env allocate %d objects; want at most %d", spawns, got, want)
	}
}
