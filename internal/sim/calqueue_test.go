package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refHeap is the kernel's previous event queue — a container/heap ordered
// by (at, seq) — kept here as the ordering oracle for the calendar queue.
type refHeap []*event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return eventBefore(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
func (h *refHeap) popLive() *event {
	for h.Len() > 0 {
		ev := heap.Pop(h).(*event)
		if !ev.cancelled {
			return ev
		}
	}
	return nil
}

// TestCalQueueDifferentialVsHeap drives the old binary heap and the new
// calendar queue with the same randomized schedule/cancel/pop workload and
// asserts identical pop order — including (at, seq) ties, which is what the
// determinism contract hangs on.
func TestCalQueueDifferentialVsHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99, 12345} {
		rng := rand.New(rand.NewSource(seed))
		cq := &calQueue{free: func(*event) {}}
		ref := &refHeap{}

		var seq uint64
		var pending []*event // live events present in both structures
		push := func(at Time) {
			seq++
			// Two physical copies of one logical event, since each
			// structure mutates its own links/flags.
			a := &event{at: at, seq: seq}
			b := &event{at: at, seq: seq}
			cq.push(a)
			heap.Push(ref, b)
			pending = append(pending, a)
		}

		var now Time
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // schedule
				at := now + Time(rng.Int63n(int64(5*time.Second)))
				if rng.Intn(10) == 0 {
					at = now // deliberate ties to exercise seq ordering
				}
				if rng.Intn(50) == 0 {
					at = MaxTime // parked-timer sentinel (WaitTimeout with no deadline)
				}
				push(at)
			case r < 7 && len(pending) > 0: // cancel a random live event
				i := rng.Intn(len(pending))
				ev := pending[i]
				pending = append(pending[:i], pending[i+1:]...)
				cq.cancel(ev)
				// The ref holds its own copy: find by (at, seq) and flag it.
				for _, rev := range *ref {
					if rev.at == ev.at && rev.seq == ev.seq {
						rev.cancelled = true
						break
					}
				}
			default: // pop
				got := cq.pop()
				want := ref.popLive()
				if (got == nil) != (want == nil) {
					t.Fatalf("seed %d op %d: pop mismatch: cal=%v heap=%v", seed, op, got, want)
				}
				if got == nil {
					continue
				}
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d op %d: pop order diverged: cal=(%d,%d) heap=(%d,%d)",
						seed, op, got.at, got.seq, want.at, want.seq)
				}
				if got.at > now && got.at != MaxTime {
					now = got.at
				}
				for i, ev := range pending {
					if ev == got {
						pending = append(pending[:i], pending[i+1:]...)
						break
					}
				}
			}
		}
		// Drain both completely: the tails must agree too.
		for {
			got, want := cq.pop(), ref.popLive()
			if got == nil && want == nil {
				break
			}
			if got == nil || want == nil || got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: order diverged: cal=%v heap=%v", seed, got, want)
			}
		}
	}
}

// spawnHeavyScript replays the event traffic of a model that spawns all the
// time — parents that fan out one to four legs at the current instant, legs
// that sleep (sometimes for no time at all) and wake their parent at the
// instant they finish, which is a scatter-gather and the place Env.Go is hot —
// against one queue, and returns the pop order. Nearly every push ties with
// others on `at`, so the order is carried by seq.
func spawnHeavyScript(seed int64, push func(*event), pop func() *event) [][2]uint64 {
	const (
		parentRun = iota // a parent starts, or wakes from its think time
		legStart
		legDone
		parentWake // a finished leg's broadcast reaching the parent
	)
	type what struct{ kind, parent int }
	rng := rand.New(rand.NewSource(seed))
	var seq uint64
	meaning := map[uint64]what{}
	sched := func(at Time, w what) {
		seq++
		meaning[seq] = w
		push(&event{at: at, seq: seq})
	}
	const parents = 40
	legsOut := make([]int, parents)
	for i := 0; i < parents; i++ {
		sched(0, what{parentRun, i})
	}
	var order [][2]uint64
	for ev := pop(); ev != nil; ev = pop() {
		order = append(order, [2]uint64{uint64(ev.at), ev.seq})
		now, w := ev.at, meaning[ev.seq]
		delete(meaning, ev.seq)
		switch w.kind {
		case parentRun:
			if len(order) > 30000 {
				break // wind down: no new fan-outs, the rest drains
			}
			legsOut[w.parent] = 1 + rng.Intn(4)
			for i := 0; i < legsOut[w.parent]; i++ {
				sched(now, what{legStart, w.parent})
			}
		case legStart:
			sched(now+Time(rng.Int63n(3))*Time(time.Millisecond), what{legDone, w.parent})
		case legDone:
			legsOut[w.parent]--
			sched(now, what{parentWake, w.parent})
		case parentWake:
			if legsOut[w.parent] == 0 {
				legsOut[w.parent] = -1 // later wakes of the same gather find nothing to do
				sched(now+Time(rng.Int63n(int64(5*time.Millisecond))), what{parentRun, w.parent})
			}
		}
	}
	return order
}

// TestCalQueueDifferentialSpawnHeavy: the calendar queue and the reference
// heap agree on a spawn-dominated schedule, where whole bursts of start
// events share one instant.
func TestCalQueueDifferentialSpawnHeavy(t *testing.T) {
	for _, seed := range []int64{1, 7, 4242} {
		cq := &calQueue{free: func(*event) {}}
		ref := &refHeap{}
		got := spawnHeavyScript(seed, cq.push, cq.pop)
		want := spawnHeavyScript(seed, func(ev *event) { heap.Push(ref, ev) }, ref.popLive)
		if len(got) < 30000 || len(got) != len(want) {
			t.Fatalf("seed %d: calendar queue popped %d events, heap %d; want the same and at least 30000", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d pop %d: order diverged: cal=%v heap=%v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestCalQueueTombstonesBounded is the regression test for the
// cancelled-event leak: before the compaction pass, a workload that arms
// and cancels far-future timers (exactly what Signal.WaitTimeout does on
// every proxied query) kept every tombstone queued until its due time,
// growing the queue without bound. Compaction must hold total queue length
// within 2× the live population (plus the pre-compaction floor).
func TestCalQueueTombstonesBounded(t *testing.T) {
	freed := 0
	cq := &calQueue{free: func(*event) { freed++ }}
	var seq uint64
	live := []*event{}
	for i := 0; i < 100000; i++ {
		seq++
		ev := &event{at: Time(i) * Time(time.Hour), seq: seq}
		cq.push(ev)
		live = append(live, ev)
		// Cancel almost everything, like timeout timers that rarely fire.
		if len(live) > 10 {
			cq.cancel(live[0])
			live = live[1:]
		}
		if max := 2*cq.live + calCompactFloor; cq.size > max {
			t.Fatalf("after %d pushes: queue size %d exceeds bound %d (live %d)", i+1, cq.size, max, cq.live)
		}
	}
	if cq.live != len(live) {
		t.Fatalf("live count %d, want %d", cq.live, len(live))
	}
	if freed == 0 {
		t.Fatal("no tombstones were recycled")
	}
}

// TestPendingMatchesScan checks the O(1) Pending counter against a direct
// scan of the queue's buckets across schedule/cancel/run churn. Pending
// was previously an O(n) walk per call; now it must stay consistent with
// the ground truth for free.
func TestPendingMatchesScan(t *testing.T) {
	e := NewEnv(1)
	scan := func() int {
		n := 0
		for _, b := range e.queue.buckets {
			for _, ev := range b {
				if !ev.cancelled {
					n++
				}
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(7))
	var cancels []func()
	for i := 0; i < 500; i++ {
		switch {
		case rng.Intn(3) > 0:
			cancels = append(cancels, e.Schedule(Time(rng.Int63n(int64(time.Minute))), func() {}))
		case len(cancels) > 0:
			j := rng.Intn(len(cancels))
			cancels[j]()
			cancels[j]() // double-cancel must be a no-op for the counter
			cancels = append(cancels[:j], cancels[j+1:]...)
		}
		if got, want := e.Pending(), scan(); got != want {
			t.Fatalf("step %d: Pending()=%d, scan=%d", i, got, want)
		}
	}
	e.RunUntil(Time(30 * time.Second))
	if got, want := e.Pending(), scan(); got != want {
		t.Fatalf("after partial run: Pending()=%d, scan=%d", got, want)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("after full run: Pending()=%d, want 0", got)
	}
}

// TestRunUntilStopKeepsClock is the regression test for Stop() inside a
// callback: RunUntil used to advance e.now to its target even when the
// simulation had been stopped mid-run, so post-mortem timestamps lied.
func TestRunUntilStopKeepsClock(t *testing.T) {
	e := NewEnv(1)
	stopAt := Time(3 * time.Second)
	e.Schedule(stopAt, func() { e.Stop() })
	e.Schedule(Time(5*time.Second), func() { t.Fatal("event after Stop ran") })
	e.RunUntil(Time(10 * time.Second))
	if e.Now() != stopAt {
		t.Fatalf("clock advanced to %v after Stop; want %v", e.Now(), stopAt)
	}
}

// TestSleepSteadyStateAllocs guards the event free list: once the pool is
// primed, a schedule→fire cycle must not allocate.
func TestSleepSteadyStateAllocs(t *testing.T) {
	e := NewEnv(1)
	fn := func() {}
	e.After(Time(time.Millisecond), fn) // prime the pool
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.After(Time(time.Millisecond), fn)
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("schedule/fire cycle allocates %.1f objects; want 0", allocs)
	}
}

// TestWaitTimeoutSteadyStateAllocs guards the pooled waiter + timer path:
// a signaled WaitTimeout must reuse the waiter and the cancelled timer
// event once the pools are primed (the coroutine handshake itself is
// allocation-free).
func TestWaitTimeoutSteadyStateAllocs(t *testing.T) {
	e := NewEnv(1)
	s := NewSignal(e)
	// Closures hoisted so the measurement sees the kernel's allocations,
	// not the test's own captures.
	waitFn := func(p *Proc) { s.WaitTimeout(p, Time(time.Hour)) }
	bcast := func() { s.Broadcast() }
	cycle := func() {
		e.Go("waiter", waitFn)
		e.After(Time(time.Millisecond), bcast)
		e.Run()
	}
	cycle() // prime pools
	// Go() itself allocates the Proc and goroutine stack; measure the
	// remainder by comparing against a spawn that never waits. Whether a
	// spawn finds a dead goroutine to reuse is the runtime's business: it
	// adds an object or two to either side for a few rounds at a time. So
	// the two sides alternate round by round and each reports its minimum —
	// noise only ever adds, while a waiter or timer that stopped being pooled
	// adds to every cycle of every round — and rounds continue, up to a cap,
	// while the minima still disagree.
	noop := func(p *Proc) {}
	tick := func() {}
	spawn := func() {
		e.Go("noop", noop)
		e.After(Time(time.Millisecond), tick)
		e.Run()
	}
	allocs, base := testing.AllocsPerRun(100, cycle), testing.AllocsPerRun(100, spawn)
	for round := 1; round < 64 && (round < 8 || allocs > base); round++ {
		allocs = min(allocs, testing.AllocsPerRun(100, cycle))
		base = min(base, testing.AllocsPerRun(100, spawn))
	}
	if allocs > base {
		t.Fatalf("WaitTimeout cycle allocates %.1f objects vs %.1f spawn baseline; waiter/timer pooling regressed", allocs, base)
	}
}
