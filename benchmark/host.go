package main

import (
	"runtime"
	"syscall"
	"time"
)

// processStart anchors the host clock; only differences are ever reported.
//
//cloudrepl:allow-simtime the benchmark's host currency is real elapsed wall time
var processStart = time.Now()

// hostNow is the benchmark's only wall-clock read: nanoseconds of host time
// since the process started. Everything reported in the host currency
// (wall_*, *_wall_ns, setup_s) is a difference of two hostNow readings.
//
//cloudrepl:allow-simtime the benchmark's host currency is real elapsed wall time
func hostNow() time.Duration { return time.Since(processStart) }

// hostSample is one reading of everything the simulator costs to run.
type hostSample struct {
	wall      time.Duration
	cpu       time.Duration // user + system CPU of the process
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPause   time.Duration
	heapSysMB float64
}

// readHost reads the wall clock, process CPU time and allocator counters.
// ReadMemStats stops the world, so it is called at rep boundaries only.
func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return hostSample{
		wall:      hostNow(),
		cpu:       cpu,
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPause:   time.Duration(ms.PauseTotalNs),
		heapSysMB: float64(ms.HeapSys) / (1 << 20),
	}
}

// mallocs reads the allocator's object counter alone. Like readHost it stops
// the world, so the host ledger never calls it inside a timed span.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
