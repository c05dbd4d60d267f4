package sim

import (
	"fmt"
	"time"
)

// Resource models a multi-server station with a FIFO wait queue: a CPU with
// N hardware threads, a disk with one head, a network card. A process
// acquires one server slot, holds it for some service time and releases it.
// Utilization and queueing statistics are tracked on the virtual timeline.
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

	acquires  uint64
	totalWait time.Duration
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

// InUse returns the number of slots currently held.
func (r *Resource) InUse() int { return r.inUse }

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

// Acquire blocks the calling process until a server slot is free. Slots
// are granted strictly in arrival order within a priority class; the
// high-priority class always goes first.
func (r *Resource) Acquire(p *Proc) { r.acquire(p, false) }

// AcquireHigh is Acquire at high priority: the caller jumps ahead of every
// normal-priority waiter (but behind earlier high-priority ones). A slave's
// SQL applier configured with apply priority uses this to avoid starving
// behind client reads.
func (r *Resource) AcquireHigh(p *Proc) { r.acquire(p, true) }

func (r *Resource) acquire(p *Proc, high bool) {
	start := r.env.now
	r.accumulate()
	r.acquires++
	if r.inUse < r.cap && r.QueueLen() == 0 {
		r.inUse++
		return
	}
	if high {
		r.urgent.Push(p)
	} else {
		r.waiters.Push(p)
	}
	p.wait(ParkResource, r.name)
	// The releasing side already claimed the slot on our behalf.
	r.totalWait += r.env.now - start
}

// Release frees a slot held by the calling process (or on its behalf). It
// may be called from any process or callback.
func (r *Resource) Release() {
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

// Use acquires a slot, holds it for service duration d and releases it.
// This is the common pattern for charging CPU time.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// UseHigh is Use with a high-priority acquisition.
func (r *Resource) UseHigh(p *Proc, d time.Duration) {
	r.AcquireHigh(p)
	p.Sleep(d)
	r.Release()
}

// ResetStats restarts utilization accounting from the current virtual time.
func (r *Resource) ResetStats() {
	r.accumulate()
	r.busyIntegral = 0
	r.statsStart = r.env.now
	r.acquires = 0
	r.totalWait = 0
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

// Acquires returns the number of Acquire calls since the last ResetStats.
func (r *Resource) Acquires() uint64 { return r.acquires }

// AvgWait returns the mean time processes spent queued before acquiring a
// slot since the last ResetStats.
func (r *Resource) AvgWait() time.Duration {
	if r.acquires == 0 {
		return 0
	}
	return r.totalWait / time.Duration(r.acquires)
}
