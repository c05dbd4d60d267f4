// Package chaos is a schedule-driven fault injector for the simulated
// cloud: it crashes and restarts instances, partitions and heals network
// paths, and spikes latency/jitter on chosen links, all at predeclared
// points on the virtual timeline. Experiments attach a Schedule to a run
// and read back the applied-event log and counters afterwards, so a chaos
// run is exactly as deterministic as a fault-free one under the same seed.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/sim"
)

// Kind enumerates injectable faults.
type Kind uint8

// Fault kinds.
const (
	Crash      Kind = iota // terminate an instance (by name)
	Restart                // bring a terminated instance back up
	Partition              // cut a placement pair both ways
	Heal                   // restore a cut placement pair
	Spike                  // add latency/jitter to a placement pair
	ClearSpike             // remove an injected spike
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case Spike:
		return "spike"
	default:
		return "clear-spike"
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the absolute virtual time the fault fires.
	At time.Duration
	// Kind selects the fault.
	Kind Kind
	// Target names the instance for Crash/Restart (resolved at fire time,
	// so schedules can be built before the cluster launches its VMs).
	Target string
	// A, B are the placement pair for network faults.
	A, B cloud.Placement
	// ExtraLatency and ExtraJitterSigma parameterize a Spike.
	ExtraLatency     time.Duration
	ExtraJitterSigma float64
}

func (e Event) String() string {
	switch e.Kind {
	case Crash, Restart:
		return fmt.Sprintf("%s %s", e.Kind, e.Target)
	case Spike:
		return fmt.Sprintf("spike %s↔%s +%v σ+%.2f", e.A, e.B, e.ExtraLatency, e.ExtraJitterSigma)
	default:
		return fmt.Sprintf("%s %s↔%s", e.Kind, e.A, e.B)
	}
}

// Schedule is an ordered fault plan. The zero value is empty; builder
// methods append and return the schedule for chaining.
type Schedule struct {
	Events []Event
}

// Crash terminates the named instance at time at.
func (s *Schedule) Crash(at time.Duration, target string) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: Crash, Target: target})
	return s
}

// Restart restarts the named instance at time at.
func (s *Schedule) Restart(at time.Duration, target string) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: Restart, Target: target})
	return s
}

// CrashFor terminates the named instance at time at and restarts it after
// downFor — the crash-and-recover pattern of a rebooted VM.
func (s *Schedule) CrashFor(at, downFor time.Duration, target string) *Schedule {
	return s.Crash(at, target).Restart(at+downFor, target)
}

// Partition cuts the a↔b path at time at.
func (s *Schedule) Partition(at time.Duration, a, b cloud.Placement) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: Partition, A: a, B: b})
	return s
}

// Heal restores the a↔b path at time at.
func (s *Schedule) Heal(at time.Duration, a, b cloud.Placement) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: Heal, A: a, B: b})
	return s
}

// PartitionFor cuts the a↔b path at time at and heals it after downFor.
func (s *Schedule) PartitionFor(at, downFor time.Duration, a, b cloud.Placement) *Schedule {
	return s.Partition(at, a, b).Heal(at+downFor, a, b)
}

// Spike adds extra latency and jitter on the a↔b path at time at.
func (s *Schedule) Spike(at time.Duration, a, b cloud.Placement, extra time.Duration, extraJitterSigma float64) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: Spike, A: a, B: b,
		ExtraLatency: extra, ExtraJitterSigma: extraJitterSigma})
	return s
}

// ClearSpike removes the a↔b spike at time at.
func (s *Schedule) ClearSpike(at time.Duration, a, b cloud.Placement) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: ClearSpike, A: a, B: b})
	return s
}

// SpikeFor adds a latency spike at time at and clears it after length.
func (s *Schedule) SpikeFor(at, length time.Duration, a, b cloud.Placement, extra time.Duration, extraJitterSigma float64) *Schedule {
	return s.Spike(at, a, b, extra, extraJitterSigma).ClearSpike(at+length, a, b)
}

// Applied is one log line of a fired (or skipped) fault.
type Applied struct {
	At      time.Duration
	Event   Event
	Skipped bool // the target instance did not exist at fire time
}

func (a Applied) String() string {
	skip := ""
	if a.Skipped {
		skip = " (skipped: no such instance)"
	}
	return fmt.Sprintf("[%v] %s%s", a.At, a.Event, skip)
}

// Counters tallies applied faults by kind. The metric tag is the name
// obs.Flatten publishes a field under (after "chaos.").
type Counters struct {
	Crashes    int `metric:"crashes"`
	Restarts   int `metric:"restarts"`
	Partitions int `metric:"partitions"`
	Heals      int `metric:"heals"`
	Spikes     int `metric:"spikes"`
	Skipped    int `metric:"skipped"`
}

// Injector executes a Schedule against a provider. Create with Start.
type Injector struct {
	env   *sim.Env
	cloud *cloud.Cloud

	log      []Applied
	counters Counters
}

// Start arms every event of the schedule on the environment's timeline.
// Events whose At is already in the past fire immediately. The schedule is
// not mutated and may be shared across runs.
func Start(env *sim.Env, cl *cloud.Cloud, sched *Schedule) *Injector {
	inj := &Injector{env: env, cloud: cl}
	if sched == nil {
		return inj
	}
	events := append([]Event(nil), sched.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, e := range events {
		e := e
		env.Schedule(e.At-env.Now(), func() { inj.apply(e) })
	}
	return inj
}

// Log returns the applied-event log in fire order.
func (inj *Injector) Log() []Applied { return inj.log }

// Counters returns the tally of applied faults.
func (inj *Injector) Counters() Counters { return inj.counters }

func (inj *Injector) apply(e Event) {
	switch e.Kind {
	case Crash, Restart:
		inst := inj.findInstance(e.Target)
		if inst == nil {
			inj.counters.Skipped++
			inj.log = append(inj.log, Applied{At: inj.env.Now(), Event: e, Skipped: true})
			return
		}
		if e.Kind == Crash {
			inst.Terminate()
			inj.counters.Crashes++
		} else {
			inst.Restart()
			inj.counters.Restarts++
		}
	case Partition:
		inj.cloud.Network().Partition(e.A, e.B)
		inj.counters.Partitions++
	case Heal:
		inj.cloud.Network().Heal(e.A, e.B)
		inj.counters.Heals++
	case Spike:
		inj.cloud.Network().SpikeLatency(e.A, e.B, e.ExtraLatency, e.ExtraJitterSigma)
		inj.counters.Spikes++
	case ClearSpike:
		inj.cloud.Network().ClearSpike(e.A, e.B)
	}
	inj.log = append(inj.log, Applied{At: inj.env.Now(), Event: e})
}

// findInstance resolves a target name to the most recently launched
// instance with that name (a re-provisioned node reuses its role name).
func (inj *Injector) findInstance(name string) *cloud.Instance {
	insts := inj.cloud.Instances()
	for i := len(insts) - 1; i >= 0; i-- {
		if insts[i].Name == name {
			return insts[i]
		}
	}
	return nil
}
