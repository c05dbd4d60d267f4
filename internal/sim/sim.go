package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

// Time is a point on the virtual timeline, expressed as the duration elapsed
// since the start of the simulation.
type Time = time.Duration

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// event is a scheduled occurrence: a process wakeup, a callback, a message
// delivery, or a signal timeout. Exactly one of proc/fn/msg/w is set. A
// wakeup is its process's own (Proc.wake); the others are pooled on the Env
// free list, and gen increments on every recycle so a cancel handle captured
// before the event fired cannot cancel an unrelated reincarnation.
type event struct {
	at        Time
	seq       uint64 // tie-breaker: schedule order
	gen       uint64 // recycle generation, guards stale cancels
	proc      *Proc  // non-nil for a process wakeup, while it is queued
	fn        func() // non-nil for a callback
	msg       Deliverable
	w         *sigWaiter // non-nil for a Signal.WaitTimeout timer
	next      *event     // the next event of the same-instant FIFO
	cancelled bool
	due       bool // queued on the same-instant FIFO, not the heap
}

// dispatchHook, when set, sees every event as it is dispatched, with the
// process it resumes (nil for a callback, delivery or timeout). Tests set it
// to pin the event order; it is nil otherwise.
var dispatchHook func(ev *event, p *Proc)

// Deliverable is a pre-allocated event payload: ScheduleDeliver queues it
// without the closure allocation that Schedule's fn costs. The network
// layer's message deliveries are the hot-path user.
type Deliverable interface{ Deliver() }

// errShutdown is panicked inside blocked processes when the environment is
// shut down; the process wrapper swallows it.
type shutdownSentinel struct{}

// Env is a simulation environment: an event queue, a virtual clock and a
// scheduler. An Env must only be driven from a single goroutine (the one
// calling Run and friends); simulation processes themselves are goroutines,
// and exactly one goroutine — the Run caller or one process — holds the
// baton, the right to touch the Env, at any moment.
type Env struct {
	now   Time
	queue eventHeap
	// due, dueTail is the same-instant FIFO: every event pushed with at ==
	// now, in push order, so in (at, seq) order — now never decreases. It
	// spares the heap the wakeups, grants and spawns due at the current
	// instant; dispatch takes whichever of its head and the heap's minimum
	// comes first.
	due, dueTail *event
	seq          uint64
	processed    uint64 // events dispatched since creation
	seed         int64
	rng          *rand.Rand
	cur          *Proc
	// yield gives the baton back to the Run caller: nil when a dispatch loop
	// on a process goroutine stopped, else a process that ended other than
	// by returning (panic, runtime.Goexit, Shutdown's unwind), to retire.
	yield    chan *Proc
	horizon  Time   // the last instant the current Run/RunUntil dispatches
	handoffs uint64 // resumes sent on a worker's channel; tests read it
	stopped  bool
	closed   bool

	efree      []*event     // recycled event structs
	wfree      []*sigWaiter // recycled signal waiters
	idle       []*worker    // parked goroutines of finished processes, reused LIFO by Go
	eventChunk chunk[event] // where an event the free list cannot give comes from

	panicVal   any
	panicProc  *Proc // the process panicVal came out of
	panicStack []byte
	// cbPanic is a callback's panic caught on a process goroutine, and
	// cbGoexit a callback's runtime.Goexit there: the Run caller re-raises
	// either, as if the callback had run on its own goroutine.
	cbPanic  any
	cbGoexit bool
	procSeq  uint64
	// first and last end the list of live processes (started and not yet
	// finished), linked through Proc.prev/next in spawn order, so in id
	// order: Go appends, retire unlinks, and the deadlock detector and
	// Shutdown walk it.
	first, last *Proc
}

// NewEnv returns a fresh environment whose random source is seeded with seed.
// Two environments with the same seed and the same process program produce
// identical event orderings.
func NewEnv(seed int64) *Env {
	e := &Env{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan *Proc),
	}
	e.queue.free = e.freeEvent
	return e
}

// chunk hands out Ts carved from arrays that double from chunkMin to
// chunkMax elements, so a fresh Env's first n events cost about log n
// allocations, and a small Env stays small.
type chunk[T any] struct {
	buf  []T
	used int
}

const (
	chunkMin = 16
	chunkMax = 256
)

func (c *chunk[T]) take() *T {
	if c.used == len(c.buf) {
		c.buf = make([]T, min(max(2*len(c.buf), chunkMin), chunkMax))
		c.used = 0
	}
	x := &c.buf[c.used]
	c.used++
	return x
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Seed returns the seed the environment was made with.
func (e *Env) Seed() int64 { return e.seed }

// Rand returns the environment's deterministic random source. It must only
// be used by the goroutine holding the baton — the Run caller, a callback or
// the running process — so no locking is needed.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Events reports the total number of events dispatched since the Env was
// created (cancelled events are not counted). It is the denominator of the
// kernel benchmark's events/sec.
func (e *Env) Events() uint64 { return e.processed }

// allocEvent takes an event struct off the free list, or a fresh one.
// Ownership: the queue owns a pushed event until it is popped or discarded
// as a tombstone; the kernel frees it before dispatch, so payload fields
// must be captured first and no pointer to the event may outlive that.
func (e *Env) allocEvent() *event {
	if n := len(e.efree); n > 0 {
		ev := e.efree[n-1]
		e.efree[n-1] = nil
		e.efree = e.efree[:n-1]
		return ev
	}
	return e.eventChunk.take()
}

// freeEvent recycles ev, bumping its generation so stale cancel handles
// become no-ops.
func (e *Env) freeEvent(ev *event) {
	ev.gen++
	ev.at = 0
	ev.seq = 0
	ev.proc = nil
	ev.fn = nil
	ev.msg = nil
	ev.w = nil
	ev.next = nil
	ev.cancelled = false
	ev.due = false
	e.efree = append(e.efree, ev)
}

// push queues ev behind every event already scheduled: on the same-instant
// FIFO when it is due now, in the heap otherwise.
func (e *Env) push(ev *event) {
	e.seq++
	ev.seq = e.seq
	if ev.at != e.now {
		e.queue.push(ev)
		return
	}
	ev.due = true
	if e.dueTail == nil {
		e.due = ev
	} else {
		e.dueTail.next = ev
	}
	e.dueTail = ev
}

// cancelEvent tombstones ev if it is still the same incarnation (gen
// matches) and still queued. Safe to call any number of times, including
// after the event fired and its struct was recycled. A FIFO event is only
// flagged: dispatch frees it when it reaches the head.
func (e *Env) cancelEvent(ev *event, gen uint64) {
	if ev == nil || ev.gen != gen || ev.cancelled {
		return
	}
	if ev.due {
		ev.cancelled = true
		return
	}
	e.queue.cancel(ev)
}

// Schedule arranges for fn to run at virtual time Now()+d. A callback runs
// on whichever goroutine holds the baton — the Run caller's or a parking
// process's — with no process current, and must not block on kernel
// primitives. The returned cancel function may be called any number of
// times, by the baton holder, and is a no-op once the event has fired. Hot paths that never
// cancel should use After, which skips the cancel-handle allocation.
func (e *Env) Schedule(d time.Duration, fn func()) (cancel func()) {
	if d < 0 {
		d = 0
	}
	ev := e.allocEvent()
	ev.at = e.now + d
	ev.fn = fn
	e.push(ev)
	gen := ev.gen
	return func() { e.cancelEvent(ev, gen) }
}

// After arranges for fn to run at virtual time Now()+d, like Schedule, but
// without materializing a cancel handle.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	ev := e.allocEvent()
	ev.at = e.now + d
	ev.fn = fn
	e.push(ev)
}

// ScheduleDeliver arranges for m.Deliver() to run at virtual time Now()+d.
// Unlike Schedule(d, func(){ ... }) this allocates nothing beyond what the
// caller already holds: the payload is the caller's own Deliverable and the
// event struct comes from the free list.
func (e *Env) ScheduleDeliver(d time.Duration, m Deliverable) {
	if d < 0 {
		d = 0
	}
	ev := e.allocEvent()
	ev.at = e.now + d
	ev.msg = m
	e.push(ev)
}

// scheduleProc arranges for p to resume at time at, in p's own wakeup
// event: a process waits for one wakeup at a time, so a second one queued
// before the first was dispatched is a kernel bug, and panics.
func (e *Env) scheduleProc(at Time, p *Proc) {
	ev := &p.wake
	if ev.proc != nil {
		panic(fmt.Sprintf("sim: process %q (proc %d) woken twice", p.name, p.id))
	}
	ev.at = max(at, e.now)
	ev.proc = p
	e.push(ev)
}

// ParkKind classifies what a blocked process is waiting for; it feeds the
// deadlock detector's wait-for dump.
type ParkKind uint8

const (
	ParkNone     ParkKind = iota // running or runnable
	ParkStart                    // spawned, waiting for its first resume
	ParkTimer                    // Sleep / SleepUntil
	ParkResource                 // waiting for a slot inside Resource.Use/UseHigh
	ParkQueue                    // Queue.Get on an empty queue
	ParkSignal                   // Signal.Wait / WaitTimeout
)

func (k ParkKind) String() string {
	switch k {
	case ParkNone:
		return "runnable"
	case ParkStart:
		return "start"
	case ParkTimer:
		return "timer"
	case ParkResource:
		return "resource"
	case ParkQueue:
		return "queue"
	case ParkSignal:
		return "signal"
	}
	return "unknown"
}

// Proc is a simulation process. All blocking methods must be called from the
// process's own goroutine while it is the running process.
type Proc struct {
	env        *Env
	name       string
	id         uint64
	w          *worker // the goroutine running this process, whose Proc this is
	prev, next *Proc   // neighbours on the Env's list of live processes
	// wake is the process's pending wakeup, queued by scheduleProc and
	// cleared by dispatch: a process is parked on one thing at a time.
	wake event

	// Park state: what the process is currently blocked on. Written by the
	// process right before parking and cleared when it resumes; read by
	// whoever holds the baton for the wait-for dump (the two never run
	// concurrently, so no locking is needed).
	parkKind ParkKind
	parkObj  string // name of the resource/queue/signal, "" for timers
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn-ordered identifier (1 for the first
// process started on the Env). Together with Name it labels the process in
// deadlock dumps and determinism diffs.
func (p *Proc) ID() uint64 { return p.id }

// ParkedOn describes what the process is blocked on ("queue relay(slave1)",
// "timer", "runnable"), for diagnostics.
func (p *Proc) ParkedOn() string {
	if p.parkKind == ParkNone || p.parkKind == ParkTimer || p.parkObj == "" {
		return p.parkKind.String()
	}
	return p.parkKind.String() + " " + p.parkObj
}

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Rand returns the environment's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.env.rng }

// worker is a goroutine that runs processes, one after another, the
// channel it is resumed through and the Proc of the process it runs. A
// process holds a worker from its spawn until fn returns; the worker then
// goes on the Env's idle list and the next Go takes it from there, Proc and
// wakeup event included, so a warm spawn allocates nothing — no Proc, no
// event, no goroutine, no channel, and a stack that has already grown to the
// depth the last process needed. Shutdown hands the idle workers to a
// process-wide pool, so the next Env's spawns allocate none of those either.
// Which worker runs a process is invisible to the simulation: ids, the start
// event and its (at, seq) are assigned by Go exactly as if the goroutine
// were new.
type worker struct {
	resume chan struct{}
	// env, p and fn are the Env and process to run at the next resume. Go
	// writes them before the start event exists and the worker reads them
	// after the resume it causes, so the channel orders the two.
	env *Env
	p   Proc
	fn  func(*Proc)
	// gone is set when the goroutine is leaving for good — runtime.Goexit out
	// of a process, which is what t.FailNow does, or a panic, whose report
	// names p — so the worker must not be recycled.
	gone bool
}

// maxPooledWorkers bounds the process-wide worker pool: twice the live
// processes of the largest benchmark cell, a two-cell sharded deployment.
const maxPooledWorkers = 1024

// workerPool holds the idle workers of Envs that have shut down. Envs on
// different goroutines (RunShards workers) share it, so its mutex guards
// every access; a worker in it is parked on its resume channel, or a step
// from it, and touches nothing until a takeWorker sends it a process.
var workerPool struct {
	sync.Mutex
	free []*worker
}

// Go starts a new simulation process running fn. The process is scheduled to
// begin at the current virtual time. Go may be called before Run, from
// another process, or from a callback.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go on a closed Env")
	}
	e.procSeq++
	w := e.takeWorker()
	p := &w.p
	*p = Proc{env: e, name: name, id: e.procSeq, w: w, prev: e.last, parkKind: ParkStart}
	if e.last == nil {
		e.first = p
	} else {
		e.last.next = p
	}
	e.last = p
	w.fn = fn
	e.scheduleProc(e.now, p)
	return p
}

// takeWorker returns the most recently parked idle worker of this Env, else
// one from the process-wide pool, else a new goroutine.
func (e *Env) takeWorker() *worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return w
	}
	w := pooledWorker()
	if w == nil {
		w = &worker{resume: make(chan struct{})}
		go w.work()
	}
	w.env = e
	return w
}

// pooledWorker takes a worker out of the process-wide pool, or returns nil.
//
//cloudrepl:allow-sharedstate the worker pool is the one state Envs on different goroutines share, and its mutex guards every access
func pooledWorker() *worker {
	workerPool.Lock()
	defer workerPool.Unlock()
	n := len(workerPool.free)
	if n == 0 {
		return nil
	}
	w := workerPool.free[n-1]
	workerPool.free[n-1] = nil
	workerPool.free = workerPool.free[:n-1]
	return w
}

// poolWorkers hands idle workers to the process-wide pool, each with its
// Proc zeroed so that a pooled worker keeps no dead Env alive, and lets the
// ones beyond the pool's bound go.
//
//cloudrepl:allow-sharedstate the worker pool is the one state Envs on different goroutines share, and its mutex guards every access
func poolWorkers(ws []*worker) {
	workerPool.Lock()
	defer workerPool.Unlock()
	for _, w := range ws {
		w.env, w.p = nil, Proc{}
		if len(workerPool.free) < maxPooledWorkers {
			workerPool.free = append(workerPool.free, w)
		} else {
			close(w.resume)
		}
	}
}

// work is a worker goroutine's whole life: park on resume, run the process
// it was handed — and the next one, while a returning process's dispatch
// loop finds the start of a process spawned onto this same worker — and park
// again. The pool's bound closing resume lets the goroutine go, and so does
// a panic out of its process, whose Proc the report names.
func (w *worker) work() {
	for range w.resume {
		for w.env.runProc(w) {
		}
		if w.gone {
			return
		}
	}
}

// runProc runs w's process on the calling worker goroutine. A process that
// returns retires itself and carries the baton on (exit), and runProc
// reports exit's answer. Any other end yields p to the Run caller: a
// panic, kept for the Run caller to re-raise under the process's name,
// Shutdown's unwind, or runtime.Goexit.
func (e *Env) runProc(w *worker) bool {
	p := &w.p
	returned := false
	defer func() {
		if returned || w.gone {
			return // w.gone already: a callback's Goexit, which dispatchOn reported
		}
		if r := recover(); r != nil {
			if _, ok := r.(shutdownSentinel); !ok {
				e.panicVal, e.panicProc, e.panicStack = r, p, debug.Stack()
				w.gone = true
			}
		} else {
			w.gone = true
		}
		e.yield <- p
	}()
	if e.closed {
		panic(shutdownSentinel{})
	}
	p.parkKind, p.parkObj = ParkNone, ""
	w.fn(p)
	returned = true
	if e.closed { // the process recovered Shutdown's unwind and returned
		e.yield <- p
		return false
	}
	return e.exit(p, w)
}

// exit retires p, which has returned, and runs the dispatch loop on its
// worker w. It reports true when the next event starts a process that a
// callback or an earlier process spawned onto w itself: the worker runs it
// with no channel operation. A process that returned is the only kind whose
// worker, and so whose Proc, Go reuses: nothing of the kernel names it any
// more, where one that panicked is panicProc until Run's caller has reported
// it, and its handle keeps naming it after that.
func (e *Env) exit(p *Proc, w *worker) bool {
	e.retire(p)
	next := e.dispatchOn(nil, w)
	if next != nil && next.w == w {
		return true
	}
	e.pass(next)
	return false
}

// retire takes a finished process off the books and parks its worker for
// the next Go. It runs on whichever goroutine holds the baton: the finished
// process's own on a return, the Run caller's otherwise, when the worker is
// already on its way back to its resume channel and touches nothing of the
// Env before it is resumed again.
func (e *Env) retire(p *Proc) {
	if p.prev == nil {
		e.first = p.next
	} else {
		p.prev.next = p.next
	}
	if p.next == nil {
		e.last = p.prev
	} else {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	w := p.w
	w.fn = nil
	if !w.gone {
		e.idle = append(e.idle, w)
	}
}

// wait blocks the calling process until it is resumed, recording what it is
// parked on (kind + object name) for the deadlock detector. The caller must
// have arranged for a wakeup (timer event, resource grant, queue put,
// signal) before calling wait. The parking process dispatches the events
// that come next itself: when the next process to run is p, it returns with
// no channel operation; otherwise it passes the baton on and parks.
func (p *Proc) wait(kind ParkKind, obj string) {
	e := p.env
	if e.cur != p {
		panic(fmt.Sprintf("sim: blocking call on process %q from outside its own goroutine", p.name))
	}
	p.parkKind, p.parkObj = kind, obj
	w := p.w
	if next := e.dispatchOn(p, w); next != p {
		e.pass(next)
		// A plain receive, not a select: this handshake runs once per
		// resumed process. Shutdown wakes parked processes through this same
		// channel and the closed flag turns the wakeup into an unwind.
		<-w.resume
		if e.closed {
			panic(shutdownSentinel{})
		}
	}
	p.parkKind, p.parkObj = ParkNone, ""
}

// pass hands the baton on from a process goroutine: to next's worker, or
// back to the Run caller when next is nil. The caller touches nothing of the
// Env afterwards until it is resumed.
func (e *Env) pass(next *Proc) {
	if next == nil {
		e.yield <- nil
		return
	}
	e.handoffs++
	next.w.resume <- struct{}{}
}

// dispatchOn is dispatch on the goroutine of worker w, which runs process p
// (nil when p has returned). A callback's panic there is not p's: it is
// caught, kept for the Run caller to re-raise as it was, and dispatchOn
// returns nil so the baton goes back. A callback's runtime.Goexit takes the
// goroutine with it: the worker is gone, p ends with it, and the Run caller
// is told to leave the same way.
func (e *Env) dispatchOn(p *Proc, w *worker) (next *Proc) {
	ok := false
	defer func() {
		if ok {
			return
		}
		if r := recover(); r != nil {
			e.cbPanic = r
			return
		}
		e.cbGoexit, w.gone = true, true
		if p == nil {
			e.idle = slices.DeleteFunc(e.idle, func(x *worker) bool { return x == w })
		}
		e.yield <- p
	}()
	next = e.dispatch()
	ok = true
	return next
}

// Sleep suspends the process for virtual duration d (non-positive durations
// still park it behind the events already due now).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleProc(p.env.now+d, p)
	p.wait(ParkTimer, "")
}

// SleepUntil suspends the process until virtual time t (immediately resumes
// if t is in the past).
func (p *Proc) SleepUntil(t Time) {
	p.env.scheduleProc(t, p)
	p.wait(ParkTimer, "")
}

// dispatch runs events in (at, seq) order on the goroutine holding the
// baton — callbacks, deliveries and signal timeouts inline, with no process
// current — until the next event resumes a process, which it makes current
// and returns. The next event is the heap's minimum or the same-instant
// FIFO's head, whichever is (at, seq)-first. It returns nil when the baton
// must go back to the Run caller: Stop was called, both queues are empty or
// the next event lies past the horizon. The event struct is recycled before
// its payload runs — payloads are captured first, and nothing downstream may
// retain the pointer.
func (e *Env) dispatch() *Proc {
	e.cur = nil
	for !e.stopped {
		for e.due != nil && e.due.cancelled {
			e.freeEvent(e.popDue())
		}
		ev := e.queue.peek()
		fromDue := e.due != nil && (ev == nil || eventBefore(e.due, ev))
		if fromDue {
			ev = e.due
		}
		if ev == nil || ev.at > e.horizon {
			return nil
		}
		if fromDue {
			e.popDue()
		} else {
			e.queue.pop()
		}
		at, fn, msg, w, p := ev.at, ev.fn, ev.msg, ev.w, ev.proc
		if dispatchHook != nil {
			dispatchHook(ev, p)
		}
		if p != nil {
			*ev = event{} // p's own wakeup: free for its next wait
		} else {
			e.freeEvent(ev)
		}
		if at > e.now {
			e.now = at
		}
		e.processed++
		switch {
		case fn != nil:
			fn()
		case msg != nil:
			msg.Deliver()
		case w != nil:
			e.signalTimeout(w)
		default:
			e.cur = p
			return p
		}
	}
	return nil
}

// popDue takes the head off the same-instant FIFO.
func (e *Env) popDue() *event {
	ev := e.due
	e.due = ev.next
	if e.due == nil {
		e.dueTail = nil
	}
	return ev
}

// run holds the baton on the Run caller's goroutine until horizon: it
// dispatches callbacks itself and hands the baton to the first process due,
// and the baton comes back when a dispatch loop on some process goroutine
// stops or a process ends other than by returning.
func (e *Env) run(horizon Time) {
	e.stopped = false
	e.horizon = horizon
	for {
		p := e.dispatch()
		if p == nil {
			return
		}
		e.handoffs++
		p.w.resume <- struct{}{}
		ended := <-e.yield
		e.cur = nil
		if ended != nil {
			e.retire(ended)
		}
		e.checkPanic()
	}
}

// checkPanic re-raises on the Run caller what ended a stretch of dispatch on
// a process goroutine: a process's panic under its name, a callback's panic
// as it was, a callback's runtime.Goexit as a Goexit.
func (e *Env) checkPanic() {
	if e.panicVal != nil {
		v, p, s := e.panicVal, e.panicProc, e.panicStack
		e.panicVal, e.panicProc, e.panicStack = nil, nil, nil
		panic(fmt.Sprintf("sim: process %q (proc %d) panicked: %v\n%s", p.name, p.id, v, s))
	}
	if v := e.cbPanic; v != nil {
		e.cbPanic = nil
		panic(v)
	}
	if e.cbGoexit {
		e.cbGoexit = false
		runtime.Goexit()
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Env) Run() { e.run(MaxTime) }

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t. Later events remain queued. If Stop is called from an
// event, the clock stays where the last event left it — it does not jump to
// t past events that are still runnable.
func (e *Env) RunUntil(t Time) {
	e.run(t)
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop makes the current Run/RunUntil call return after the event in
// progress. It may be called from a process or callback.
func (e *Env) Stop() { e.stopped = true }

// WaitForGraph renders the wait-for graph of every live process: one line
// per process, sorted by spawn id, naming the resource, queue or signal it
// is parked on. It is the payload of the deadlock detector's panic and is
// also useful on its own when a test hangs.
func (e *Env) WaitForGraph() string {
	var b strings.Builder
	for p := e.first; p != nil; p = p.next {
		name := p.name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Fprintf(&b, "  proc %-4d %-28s parked on %s\n", p.id, name, p.ParkedOn())
	}
	return b.String()
}

// shutdownWatchdog bounds how long Shutdown waits for the processes to
// unwind before declaring the kernel wedged and dumping the wait-for graph.
var shutdownWatchdog = 5 * time.Second

// wedged is what Shutdown's watchdog sends in place of an ended process.
var wedged = new(Proc)

// live counts the processes that have not returned.
func (e *Env) live() int {
	n := 0
	for p := e.first; p != nil; p = p.next {
		n++
	}
	return n
}

// Shutdown unwinds every blocked process and hands every idle worker to the
// process-wide pool, so that no goroutine outlives the Env but the pool's.
// The environment must not be used afterwards. It is safe to call Shutdown
// after Run has returned, including when processes are still blocked on
// resources or queues.
//
// If the processes fail to unwind within shutdownWatchdog — deferred cleanup
// blocked on a kernel primitive the scheduler does not manage, typically —
// Shutdown panics with a deadlock report: every live process's name and the
// resource, queue or signal it is parked on, so the hang is attributable
// without a debugger.
//
//cloudrepl:allow-simtime the unwind watchdog must measure wall time: a wedged process stops the virtual clock entirely
func (e *Env) Shutdown() {
	if e.closed {
		return
	}
	e.closed = true
	// Every alive process is parked on its worker's resume channel — in
	// wait(), or not yet started — and observes the closed flag when woken.
	// No process can be running because Shutdown is called from the Run
	// caller's goroutine between runs. Wake one process at a time, in
	// spawn order, and wait for it to finish unwinding before waking the
	// next, so deferred cleanup never runs concurrently across processes.
	// Each unwind retires its process, so the list's head is the next. One
	// watchdog covers the whole unwind: it sends wedged down the channel the
	// unwinds end on, so waiting for each is a plain receive.
	// Each unwind parks its worker on the idle list, so that grows once, to
	// fit them all, not by doubling as they come.
	e.idle = slices.Grow(e.idle, e.live())
	watchdog := time.AfterFunc(shutdownWatchdog, func() { e.yield <- wedged })
	for p := e.first; p != nil; p = e.first {
		p.w.resume <- struct{}{}
		ended := <-e.yield
		for ended == nil { // a dispatch loop stopped; the unwind goes on
			ended = <-e.yield
		}
		if ended == wedged {
			panic(fmt.Sprintf(
				"sim: deadlock during Shutdown: %d process(es) failed to unwind within %v\nwait-for graph:\n%s",
				e.live(), shutdownWatchdog, e.WaitForGraph()))
		}
		e.retire(ended)
	}
	if !watchdog.Stop() {
		<-e.yield // it fired as the last unwind ended: take its wedged
	}
	// Every worker is idle now — parked on its resume channel, or a step
	// away from it — and the next Env's spawns take it from the pool.
	poolWorkers(e.idle)
	e.idle = nil
}
