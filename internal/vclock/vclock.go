// Package vclock models per-instance wall clocks on the virtual timeline:
// an initial offset from true time, a constant drift rate, and an NTP daemon
// that periodically re-synchronizes with bounded accuracy.
//
// The paper measures replication delay by comparing timestamps committed on
// different machines, so clock offset and drift leak directly into the raw
// measurements (its Fig. 4); the heartbeat pipeline removes them by
// reporting *relative* delay. This package reproduces both the problem and
// the fix.
package vclock

import (
	"time"

	"cloudrepl/internal/sim"
)

// Clock is a virtual machine's local wall clock. True time is the simulation
// clock; the local clock reads true time plus an offset that grows linearly
// with a drift rate until an NTP correction rebases it.
type Clock struct {
	env *sim.Env

	baseOffset time.Duration // offset materialized at lastSet
	driftPPM   float64       // microseconds gained per second of true time
	lastSet    sim.Time
}

// Config describes a clock's error model.
type Config struct {
	// InitialOffset is the offset from true time at creation.
	InitialOffset time.Duration
	// DriftPPM is the clock's drift in parts per million (µs per true
	// second). EC2-era commodity clocks drift on the order of tens of PPM.
	DriftPPM float64
}

// New creates a clock bound to env with the given error model.
func New(env *sim.Env, cfg Config) *Clock {
	return &Clock{env: env, baseOffset: cfg.InitialOffset, driftPPM: cfg.DriftPPM, lastSet: env.Now()}
}

// Offset returns the clock's current deviation from true time.
func (c *Clock) Offset() time.Duration {
	elapsed := (c.env.Now() - c.lastSet).Seconds()
	return c.baseOffset + time.Duration(c.driftPPM*elapsed*1e3)*time.Nanosecond
}

// Now returns the local perception of time as a duration since the
// simulation epoch.
func (c *Clock) Now() time.Duration { return c.env.Now() + c.Offset() }

// NowMicros returns Now in whole microseconds — the resolution of the
// paper's user-defined time function (MySQL Bug #8523 workaround).
func (c *Clock) NowMicros() int64 { return c.Now().Microseconds() }

// SetOffset rebases the clock's offset to exactly o at the current instant
// (an NTP step correction). Drift continues from here.
func (c *Clock) SetOffset(o time.Duration) {
	c.baseOffset = o
	c.lastSet = c.env.Now()
}

// Diff returns a's local reading minus b's local reading at this instant —
// what an operator comparing two instance clocks would observe.
func Diff(a, b *Clock) time.Duration { return a.Now() - b.Now() }
