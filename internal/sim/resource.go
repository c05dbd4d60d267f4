package sim

import (
	"fmt"
	"time"
)

// Resource models a multi-server station with a FIFO wait queue: a CPU with
// N hardware threads, a disk with one head, a network card. Use is the only
// way to hold a slot: a process waits its turn, holds one slot for its
// service time and frees it before Use returns. Nothing else parks while a
// slot is held, so resources cannot deadlock each other. Utilization and
// queueing statistics are tracked on the virtual timeline.
type Resource struct {
	env  *Env
	name string
	cap  int

	inUse   int
	waiters Ring[*Proc] // normal-priority FIFO
	urgent  Ring[*Proc] // high-priority FIFO, always served first

	// Integrals for time-weighted statistics.
	lastChange   Time
	busyIntegral float64 // ∫ inUse dt, in seconds·servers
	statsStart   Time
}

// NewResource creates a resource with the given number of server slots.
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity must be >= 1, got %d", name, capacity))
	}
	return &Resource{env: env, name: name, cap: capacity}
}

// Cap returns the number of server slots.
func (r *Resource) Cap() int { return r.cap }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.Len() + r.urgent.Len() }

func (r *Resource) accumulate() {
	now := r.env.now
	dt := (now - r.lastChange).Seconds()
	if dt > 0 {
		r.busyIntegral += dt * float64(r.inUse)
	}
	r.lastChange = now
}

// acquire blocks the calling process until a server slot is free. Slots are
// granted strictly in arrival order within a priority class; the
// high-priority class always goes first.
func (r *Resource) acquire(p *Proc, high bool) {
	r.accumulate()
	if r.inUse < r.cap && r.QueueLen() == 0 {
		r.inUse++
		return
	}
	if high {
		r.urgent.Push(p)
	} else {
		r.waiters.Push(p)
	}
	// The releasing side claims the slot on our behalf before it wakes us.
	p.wait(ParkResource, r.name)
}

// release frees a held slot and hands it to the next waiter, if any.
func (r *Resource) release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	r.accumulate()
	r.inUse--
	if r.inUse >= r.cap {
		return
	}
	next, ok := r.urgent.Pop()
	if !ok {
		if next, ok = r.waiters.Pop(); !ok {
			return
		}
	}
	r.inUse++ // claim the slot for the woken process
	r.env.scheduleProc(r.env.now, next)
}

// Use waits for a slot, holds it for service duration d and frees it: the
// charge of CPU time, a disk access or a transmission.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.acquire(p, false)
	p.Sleep(d)
	r.release()
}

// UseHigh is Use at high priority: the caller jumps ahead of every
// normal-priority waiter (but behind earlier high-priority ones). A slave's
// SQL applier configured with apply priority uses this to avoid starving
// behind client reads.
func (r *Resource) UseHigh(p *Proc, d time.Duration) {
	r.acquire(p, true)
	p.Sleep(d)
	r.release()
}

// ResetStats restarts utilization accounting from the current virtual time.
func (r *Resource) ResetStats() {
	r.accumulate()
	r.busyIntegral = 0
	r.statsStart = r.env.now
}

// Utilization returns the time-averaged fraction of capacity in use since
// the last ResetStats (or creation).
func (r *Resource) Utilization() float64 {
	r.accumulate()
	elapsed := (r.env.now - r.statsStart).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return r.busyIntegral / (elapsed * float64(r.cap))
}

// BusySeconds returns the cumulative busy integral (seconds·servers) since
// the last ResetStats. It is a non-decreasing counter between resets, which
// makes it the right input for windowed-utilization estimators that need
// "how busy was this CPU over the last N seconds" rather than a run-wide
// average.
func (r *Resource) BusySeconds() float64 {
	r.accumulate()
	return r.busyIntegral
}
