// Package sim implements a process-based discrete-event simulation kernel.
//
// Every timing-sensitive component of cloudrepl — database server CPUs,
// network links, clocks, NTP daemons, benchmark users — runs as a simulation
// process on a shared virtual timeline. A process runs on an ordinary
// goroutine and blocks only through kernel primitives (Proc.Sleep,
// Resource.Acquire, Queue.Get, Signal.Wait). The kernel runs exactly one
// process at a time and orders wakeups by (virtual time, schedule sequence),
// so a run is fully deterministic for a given seed.
//
// A process and the goroutine under it have different lifetimes. Env.Go
// creates the Proc — name, spawn-ordered id, start event — and borrows a
// parked goroutine from the Env's idle list, starting one only when the list
// is empty; when the process function returns the goroutine goes back on the
// list for the next Go. Spawning a short-lived process (a scatter-gather leg,
// a timeout watcher) therefore costs one small object, and which goroutine
// ran it is invisible to the simulation. Env.Shutdown unwinds the processes
// still parked and then lets every idle goroutine go; an Env that is dropped
// without Shutdown leaks both.
//
// Run/RunFor/RunUntil execute events as fast as the host allows: a 35-minute
// experiment finishes in seconds.
//
// The zero kernel overhead target is modest — a few hundred thousand events
// per second — which is ample for the Cloudstone-scale experiments this
// repository reproduces.
package sim
