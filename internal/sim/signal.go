package sim

import "time"

// Signal is a broadcast condition variable for simulation processes. A
// waiter blocks until the next Broadcast after it started waiting, or until
// an optional timeout elapses. Semi-synchronous replication acknowledgements
// and cluster state changes are built on Signals.
type Signal struct {
	env     *Env
	name    string
	waiters []*sigWaiter
}

// sigWaiter records one blocked process. Waiters are pooled on the Env:
// the waiting process owns its waiter and frees it when Wait/WaitTimeout
// returns, so neither the signal (waiters are unlinked before wakeup) nor
// the timer event (tombstoned or already fired) can reach a recycled one.
type sigWaiter struct {
	p        *Proc
	s        *Signal
	woken    bool
	timedOut bool
	timer    *event // pending timeout event, nil when no timeout
	timerGen uint64 // generation guard for cancelling timer
}

// NewSignal creates a Signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Named sets the signal's diagnostic name (shown in deadlock wait-for
// dumps) and returns the signal, so it chains onto NewSignal.
func (s *Signal) Named(name string) *Signal {
	s.name = name
	return s
}

// allocWaiter takes a waiter off the Env free list, or allocates one.
func (e *Env) allocWaiter() *sigWaiter {
	if n := len(e.wfree); n > 0 {
		w := e.wfree[n-1]
		e.wfree[n-1] = nil
		e.wfree = e.wfree[:n-1]
		return w
	}
	return &sigWaiter{}
}

func (e *Env) freeWaiter(w *sigWaiter) {
	w.p = nil
	w.s = nil
	w.woken = false
	w.timedOut = false
	w.timer = nil
	w.timerGen = 0
	e.wfree = append(e.wfree, w)
}

// Wait blocks the calling process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	e := s.env
	w := e.allocWaiter()
	w.p = p
	w.s = s
	s.waiters = append(s.waiters, w)
	p.wait(ParkSignal, s.name)
	e.freeWaiter(w)
}

// WaitTimeout blocks until the next Broadcast or until d elapses. It reports
// whether the signal arrived (false on timeout). The timeout is a kernel
// event carrying the waiter itself — no closure, and its near-universal
// cancellation (waits usually succeed) is absorbed by the queue's tombstone
// compaction.
func (s *Signal) WaitTimeout(p *Proc, d time.Duration) bool {
	e := s.env
	w := e.allocWaiter()
	w.p = p
	w.s = s
	if d < 0 {
		d = 0
	}
	ev := e.allocEvent()
	ev.at = e.now + d
	ev.w = w
	e.push(ev)
	w.timer = ev
	w.timerGen = ev.gen
	s.waiters = append(s.waiters, w)
	p.wait(ParkSignal, s.name)
	timedOut := w.timedOut
	e.freeWaiter(w)
	return !timedOut
}

// signalTimeout fires a WaitTimeout deadline: the kernel dispatches it when
// the timer event pops. The waiter is still live — it is freed only by the
// blocked process after it resumes — so the check-and-wake is safe even if
// a Broadcast won the same instant.
func (e *Env) signalTimeout(w *sigWaiter) {
	if w.woken {
		return
	}
	w.woken = true
	w.timedOut = true
	w.timer = nil
	w.s.remove(w)
	e.scheduleProc(e.now, w.p)
}

func (s *Signal) remove(w *sigWaiter) {
	for i, x := range s.waiters {
		if x == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Broadcast wakes every current waiter. It may be called from any process or
// callback; waiters resume at the current virtual time in wait order.
func (s *Signal) Broadcast() {
	for _, w := range s.waiters {
		if w.woken {
			continue
		}
		w.woken = true
		if w.timer != nil {
			s.env.cancelEvent(w.timer, w.timerGen)
			w.timer = nil
		}
		s.env.scheduleProc(s.env.now, w.p)
	}
	s.waiters = s.waiters[:0]
}
