package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Time is a point on the virtual timeline, expressed as the duration elapsed
// since the start of the simulation.
type Time = time.Duration

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// event is a scheduled occurrence: a process wakeup, a callback, a message
// delivery, or a signal timeout. Exactly one of proc/fn/msg/w is set.
// Events are pooled on the Env free list; gen increments on every recycle
// so a cancel handle captured before the event fired cannot cancel an
// unrelated reincarnation.
type event struct {
	at        Time
	seq       uint64 // tie-breaker: schedule order
	gen       uint64 // recycle generation, guards stale cancels
	proc      *Proc  // non-nil for a process wakeup
	fn        func() // non-nil for a callback
	msg       Deliverable
	w         *sigWaiter // non-nil for a Signal.WaitTimeout timer
	cancelled bool
}

// Deliverable is a pre-allocated event payload: ScheduleDeliver queues it
// without the closure allocation that Schedule's fn costs. The network
// layer's message deliveries are the hot-path user.
type Deliverable interface{ Deliver() }

type yieldKind int

const (
	yieldBlocked yieldKind = iota
	yieldDone
)

type yieldMsg struct {
	p    *Proc
	kind yieldKind
}

// errShutdown is panicked inside blocked processes when the environment is
// shut down; the process wrapper swallows it.
type shutdownSentinel struct{}

// Env is a simulation environment: an event queue, a virtual clock and a
// scheduler. An Env must only be driven from a single goroutine (the one
// calling Run and friends); simulation processes themselves are goroutines
// that the scheduler resumes one at a time.
type Env struct {
	now       Time
	queue     calQueue
	seq       uint64
	processed uint64 // events dispatched since creation
	rng       *rand.Rand
	cur       *Proc
	yield     chan yieldMsg
	alive     int // processes started and not yet finished
	stopped   bool
	closed    bool

	efree []*event     // recycled event structs
	wfree []*sigWaiter // recycled signal waiters
	idle  []*worker    // parked goroutines of finished processes, reused LIFO by Go

	panicVal   any
	panicProc  *Proc // the process panicVal came out of
	panicStack []byte
	procSeq    uint64
	// procs indexes every live process by id so the deadlock detector can
	// dump a wait-for graph (who is parked on which resource/queue/signal).
	procs map[uint64]*Proc
}

// NewEnv returns a fresh environment whose random source is seeded with seed.
// Two environments with the same seed and the same process program produce
// identical event orderings.
func NewEnv(seed int64) *Env {
	e := &Env{
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan yieldMsg),
		procs: make(map[uint64]*Proc),
	}
	e.queue.free = e.freeEvent
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from the scheduler goroutine or from a running process (both are
// serialized, so no locking is needed).
func (e *Env) Rand() *rand.Rand { return e.rng }

// Pending reports the number of live (not cancelled) scheduled events. It is
// O(1): the queue maintains the count across push/pop/cancel.
func (e *Env) Pending() int { return e.queue.live }

// Events reports the total number of events dispatched since the Env was
// created (cancelled events are not counted). It is the denominator of the
// kernel benchmark's events/sec.
func (e *Env) Events() uint64 { return e.processed }

// Alive reports the number of processes that have been started and have not
// yet returned.
func (e *Env) Alive() int { return e.alive }

// allocEvent takes an event struct off the free list, or allocates one.
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
	return &event{}
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
	ev.cancelled = false
	e.efree = append(e.efree, ev)
}

func (e *Env) push(ev *event) *event {
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
	return ev
}

// cancelEvent tombstones ev if it is still the same incarnation (gen
// matches) and still queued. Safe to call any number of times, including
// after the event fired and its struct was recycled.
func (e *Env) cancelEvent(ev *event, gen uint64) {
	if ev == nil || ev.gen != gen || ev.cancelled {
		return
	}
	e.queue.cancel(ev)
}

// Schedule arranges for fn to run at virtual time Now()+d. Callbacks run on
// the scheduler goroutine and must not block on kernel primitives. The
// returned cancel function may be called any number of times, from scheduler
// context, and is a no-op once the event has fired. Hot paths that never
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

// scheduleProc arranges for p to resume at time at.
func (e *Env) scheduleProc(at Time, p *Proc) {
	if at < e.now {
		at = e.now
	}
	ev := e.allocEvent()
	ev.at = at
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
	ParkResource                 // Resource.Acquire wait queue
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
	env  *Env
	name string
	id   uint64
	w    *worker // the goroutine running this process, borrowed until it returns

	// Park state: what the process is currently blocked on. Written by the
	// process right before yielding and cleared when it resumes; read by
	// the scheduler goroutine for the wait-for dump (the two never run
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

// worker is a goroutine that runs processes, one after another, and the
// channel the scheduler resumes it through. A process borrows a worker from
// its spawn until fn returns; the scheduler then parks the worker on the
// Env's idle list and the next Go takes it from there, so a spawn costs the
// Proc and nothing else — no goroutine, no channel, and a stack that has
// already grown to the depth the last process needed. Which worker runs a
// process is invisible to the simulation: ids, the start event and its
// (at, seq) are assigned by Go exactly as if the goroutine were new.
type worker struct {
	resume chan struct{}
	// p and fn are the process to run at the next resume. Go writes them
	// before the start event exists and the worker reads them after the
	// resume it causes, so the channel orders the two.
	p  *Proc
	fn func(*Proc)
	// gone is set when the goroutine is leaving for good (runtime.Goexit out
	// of a process, which is what t.FailNow does): it must not be recycled.
	gone bool
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
	p := &Proc{env: e, name: name, id: e.procSeq, w: w, parkKind: ParkStart}
	w.p, w.fn = p, fn
	e.alive++
	e.procs[p.id] = p
	e.scheduleProc(e.now, p)
	return p
}

// takeWorker returns the most recently parked idle worker, or starts one.
func (e *Env) takeWorker() *worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return w
	}
	w := &worker{resume: make(chan struct{})}
	// The kernel's own process launcher is the one place a goroutine may be
	// created: the scheduler immediately owns it and resumes it one at a
	// time against the virtual clock.
	//cloudrepl:allow-rawgo the sim kernel implements Env.Go itself; the goroutine is scheduler-managed from birth
	go e.work(w)
	return w
}

// work is a worker goroutine's whole life: park on resume, run the process
// it was handed, report it done, park again. Shutdown closes resume to let
// the goroutine go.
func (e *Env) work(w *worker) {
	for range w.resume {
		e.runProc(w)
	}
}

// runProc runs w's process to completion on the calling worker goroutine and
// yields yieldDone to the scheduler, whichever way the process ends: return,
// panic (kept for the scheduler goroutine to re-raise under the process's
// name), Shutdown's unwind, or runtime.Goexit.
func (e *Env) runProc(w *worker) {
	p := w.p
	returned := false
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(shutdownSentinel); !ok {
				e.panicVal, e.panicProc, e.panicStack = r, p, debug.Stack()
			}
		} else if !returned {
			w.gone = true
		}
		e.yield <- yieldMsg{p, yieldDone}
	}()
	if e.closed {
		panic(shutdownSentinel{})
	}
	p.parkKind, p.parkObj = ParkNone, ""
	w.fn(p)
	returned = true
}

// retire takes a finished process off the books and parks its worker for
// the next Go. Scheduler goroutine only; the worker itself is already on its
// way back to its resume channel and touches nothing of the Env before it
// is resumed again.
func (e *Env) retire(p *Proc) {
	e.alive--
	delete(e.procs, p.id)
	w := p.w
	p.w, w.p, w.fn = nil, nil, nil
	if !w.gone {
		e.idle = append(e.idle, w)
	}
}

// wait blocks the calling process until it is resumed by the scheduler,
// recording what it is parked on (kind + object name) for the deadlock
// detector. The caller must have arranged for a wakeup (timer event,
// resource grant, queue put, signal) before calling wait.
func (p *Proc) wait(kind ParkKind, obj string) {
	e := p.env
	if e.cur != p {
		panic(fmt.Sprintf("sim: blocking call on process %q from outside its own goroutine", p.name))
	}
	p.parkKind, p.parkObj = kind, obj
	e.yield <- yieldMsg{p, yieldBlocked}
	// A plain receive, not a select: this handshake runs once per resumed
	// process and a two-way select here costs ~25% of pure-kernel time.
	// Shutdown wakes parked processes through this same channel and the
	// closed flag turns the wakeup into an unwind.
	<-p.w.resume
	if e.closed {
		panic(shutdownSentinel{})
	}
	p.parkKind, p.parkObj = ParkNone, ""
}

// Sleep suspends the process for virtual duration d (non-positive durations
// still yield to the scheduler for one event cycle).
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

// step executes the next event. It returns false when the queue is empty.
// The event struct is recycled before dispatch — payloads are captured
// first, and nothing downstream may retain the pointer.
func (e *Env) step() bool {
	ev, idx := e.queue.locate()
	if ev == nil {
		return false
	}
	e.queue.popLocated(idx)
	at, fn, msg, w, p := ev.at, ev.fn, ev.msg, ev.w, ev.proc
	e.freeEvent(ev)
	if at > e.now {
		e.now = at
	}
	e.processed++
	switch {
	case fn != nil:
		fn()
		e.checkPanic()
	case msg != nil:
		msg.Deliver()
		e.checkPanic()
	case w != nil:
		e.signalTimeout(w)
	default:
		e.cur = p
		p.w.resume <- struct{}{}
		m := <-e.yield
		e.cur = nil
		if m.kind == yieldDone {
			e.retire(m.p)
		}
		e.checkPanic()
	}
	return true
}

func (e *Env) checkPanic() {
	if e.panicVal != nil {
		v, p, s := e.panicVal, e.panicProc, e.panicStack
		e.panicVal, e.panicProc, e.panicStack = nil, nil, nil
		panic(fmt.Sprintf("sim: process %q (proc %d) panicked: %v\n%s", p.name, p.id, v, s))
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Env) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t. Later events remain queued. If Stop is called from an
// event, the clock stays where the last event left it — it does not jump to
// t past events that are still runnable.
func (e *Env) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		next := e.peek()
		if next == nil || next.at > t {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor executes events for virtual duration d from the current time.
func (e *Env) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// peek returns the earliest non-cancelled event without removing it.
func (e *Env) peek() *event {
	ev, _ := e.queue.locate()
	return ev
}

// Stop makes the current Run/RunUntil/RunFor call return after the event in
// progress. It may be called from a process or callback.
func (e *Env) Stop() { e.stopped = true }

// WaitForGraph renders the wait-for graph of every live process: one line
// per process, sorted by spawn id, naming the resource, queue or signal it
// is parked on. It is the payload of the deadlock detector's panic and is
// also useful on its own when a test hangs.
func (e *Env) WaitForGraph() string {
	ids := make([]uint64, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		p := e.procs[id]
		name := p.name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Fprintf(&b, "  proc %-4d %-28s parked on %s\n", p.id, name, p.ParkedOn())
	}
	return b.String()
}

// shutdownWatchdog bounds how long Shutdown waits for a single process to
// unwind before declaring the kernel wedged and dumping the wait-for graph.
var shutdownWatchdog = 5 * time.Second

// Shutdown unwinds every blocked process and releases every idle worker so
// that no goroutines leak. The environment must not be used afterwards. It
// is safe to call Shutdown after Run has returned, including when processes
// are still blocked on resources or queues.
//
// If a process fails to unwind — deferred cleanup blocked on a kernel
// primitive the scheduler does not manage, typically — Shutdown panics with
// a deadlock report: every live process's name and the resource, queue or
// signal it is parked on, so the hang is attributable without a debugger.
//
//cloudrepl:allow-simtime the unwind watchdog must measure wall time: a wedged process stops the virtual clock entirely
func (e *Env) Shutdown() {
	if e.closed {
		return
	}
	e.closed = true
	// Every alive process is parked on its worker's resume channel — in
	// wait(), or not yet started — and observes the closed flag when woken.
	// No process can be running because Shutdown is called from the
	// scheduler goroutine between events. Wake one process at a time, in
	// spawn order, and wait for it to finish unwinding before waking the
	// next, so deferred cleanup never runs concurrently across processes.
	ids := make([]uint64, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	watchdog := time.NewTimer(shutdownWatchdog)
	defer watchdog.Stop()
	for _, id := range ids {
		p, live := e.procs[id]
		if !live {
			continue
		}
		p.w.resume <- struct{}{}
		waitDone := true
		for waitDone {
			if !watchdog.Stop() {
				select {
				case <-watchdog.C:
				default:
				}
			}
			watchdog.Reset(shutdownWatchdog)
			select {
			case msg := <-e.yield:
				if msg.kind == yieldDone {
					e.retire(msg.p)
					waitDone = false
				}
			case <-watchdog.C:
				panic(fmt.Sprintf(
					"sim: deadlock during Shutdown: %d process(es) failed to unwind within %v\nwait-for graph:\n%s",
					e.alive, shutdownWatchdog, e.WaitForGraph()))
			}
		}
	}
	// Every worker is idle now — parked on its resume channel, or a step
	// away from it — and closing the channel ends its loop.
	for _, w := range e.idle {
		close(w.resume)
	}
	e.idle = nil
}
