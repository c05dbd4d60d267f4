// Package sim implements a process-based discrete-event simulation kernel.
//
// Every timing-sensitive component of cloudrepl — database server CPUs,
// network links, clocks, NTP daemons, benchmark users — runs as a simulation
// process on a shared virtual timeline. A process runs on an ordinary
// goroutine and blocks only through kernel primitives (Proc.Sleep,
// Resource.Use, Queue.Get, Signal.Wait). The kernel runs exactly one process
// at a time and orders wakeups by (virtual time, schedule sequence), so a run
// is fully deterministic for a given seed.
//
// A Resource slot is held only inside one Use call, whose one park while
// holding is its own service-time sleep, so no process waits on a primitive
// while it holds a slot: resources cannot form a wait-for cycle, and the
// kernel exports nothing to acquire or release one by hand.
//
// There is no scheduler goroutine. Whoever holds the baton — the goroutine
// calling Run, or one process — dispatches events: a process that parks or
// returns runs callbacks itself until the next event is a process wakeup,
// goes straight on when that wakeup is its own, and otherwise hands the
// baton to that process's goroutine with one channel send. The baton returns
// to Run's caller at the horizon, on Stop, on an empty queue, and with any
// panic, which is re-raised there: a process's under its name, a callback's
// as it was thrown.
//
// A process and the goroutine under it have different lifetimes. Env.Go
// creates the Proc — name, spawn-ordered id, start event — and borrows a
// parked goroutine from the Env's idle list, else from a process-wide pool,
// starting one only when both are empty; when the process function returns
// the goroutine goes back on the list for the next Go. Spawning a short-lived
// process (a scatter-gather leg, a timeout watcher) therefore costs one small
// object, and which goroutine ran it is invisible to the simulation.
// Env.Shutdown unwinds the processes still parked and then hands every idle
// goroutine to the pool, whose bound lets the surplus go; an Env that is
// dropped without Shutdown leaks both.
//
// Run/RunUntil execute events as fast as the host allows: a 35-minute
// experiment finishes in seconds.
//
// The zero kernel overhead target is modest — a few hundred thousand events
// per second — which is ample for the Cloudstone-scale experiments this
// repository reproduces.
package sim
