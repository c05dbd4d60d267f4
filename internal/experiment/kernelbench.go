package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"cloudrepl/internal/sim"
)

// KernelMeasure is one kernel-speed measurement: how many simulation
// events were dispatched, how long it took on the wall clock, and the
// derived rates the regression gate watches.
type KernelMeasure struct {
	Events         uint64  `json:"events"`
	WallMs         float64 `json:"wall_ms"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// KernelBenchResult is the BENCH_kernel.json payload: the raw speed of the
// simulation kernel, tracked PR-over-PR so scheduler and allocation
// regressions surface immediately (`make bench-gate` holds both workloads'
// ns/event and the cell's allocs/event to the parent commit's,
// bench/summary.awk).
type KernelBenchResult struct {
	// Micro is a pure-kernel workload — timers, signal waits with
	// timeouts, cross-proc message delivery — with no SQL or middleware on
	// top, so it isolates the scheduler + event-pool cost per event.
	Micro KernelMeasure `json:"micro"`
	// Cell is one Fig. 2-style experiment cell on the quick protocol: the
	// kernel cost with the full model stack (proxy→pool→server→binlog)
	// running on top of it.
	Cell KernelMeasure `json:"cell"`
	// FiguresWallMs is the wall-clock of the surrounding figure/ablation
	// sweep when the bench rode along with -all; 0 for standalone runs.
	FiguresWallMs float64 `json:"figures_wall_ms"`
}

// kernelMicroSteps is how many equal stretches of virtual time the micro
// workload's run is timed in. The fastest stretch gives its ns/event and
// events/sec: a shared host's speed shifts by up to 2.5× from one tens of
// milliseconds to the next (co-tenants on the same cores), and only the
// fastest of many short windows reads alike on two runs of one build.
const kernelMicroSteps = 10

// collectorOff runs a collection and turns the collector off, returning the
// setting debug.SetGCPercent puts back: no collection starts inside a timed
// window. When one starts and how long it takes depend on the host — its
// workers run beside the measured code on a shared CPU — while what it is
// paid for, allocation, is gated by count. The benches' heaps stay small
// enough to grow unswept for one run.
func collectorOff() int {
	runtime.GC()
	return debug.SetGCPercent(-1)
}

// measureKernel times steps calls of step (each reports how many kernel
// events it dispatched), with the collector off, and derives the per-event
// rates: Events and WallMs are the steps' total, ns/event and events/sec the
// fastest step's. Allocations are measured process-wide via MemStats over
// every step: the harness is quiesced around the run, so the delta is
// dominated by the workload itself.
func measureKernel(steps int, step func() uint64) KernelMeasure {
	var before, after runtime.MemStats
	defer debug.SetGCPercent(collectorOff())
	runtime.ReadMemStats(&before)
	var m KernelMeasure
	var total, best time.Duration
	var bestEvents uint64
	for i := 0; i < steps; i++ {
		//cloudrepl:allow-simtime the kernel bench measures real elapsed wall time per simulated event
		start := time.Now()
		events := step()
		//cloudrepl:allow-simtime the kernel bench measures real elapsed wall time per simulated event
		wall := time.Since(start)
		total += wall
		m.Events += events
		if events > 0 && (best == 0 || wall*time.Duration(bestEvents) < best*time.Duration(events)) {
			best, bestEvents = wall, events
		}
	}
	runtime.ReadMemStats(&after)

	m.WallMs = float64(total.Nanoseconds()) / 1e6
	if m.Events > 0 {
		m.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(m.Events)
	}
	if best > 0 {
		m.NsPerEvent = float64(best.Nanoseconds()) / float64(bestEvents)
		m.EventsPerSec = float64(bestEvents) / best.Seconds()
	}
	return m
}

// kernelPing is the micro-workload's Deliverable: a message that re-sends
// itself with a fixed per-hop latency until the run ends, modelling the
// kernel cost of network delivery without any network model on top.
type kernelPing struct {
	env  *sim.Env
	hop  time.Duration
	hops int
}

func (k *kernelPing) Deliver() {
	k.hops++
	k.env.ScheduleDeliver(k.hop, k)
}

// kernelMicroWorkload exercises every hot kernel path — timer events
// (Sleep), signal waits with timeouts that usually cancel (the proxied
// query pattern), broadcasts, and self-rescheduling message delivery — for
// a fixed stretch of virtual time, run in kernelMicroSteps equal steps, and
// measures it. All scheduling derives from the seed, so the event count is
// deterministic, and the steps dispatch the events one run would.
func kernelMicroWorkload(seed int64) KernelMeasure {
	env := sim.NewEnv(seed)
	const (
		procs   = 64
		pings   = 16
		horizon = 30 * time.Second // virtual
	)
	sig := sim.NewSignal(env).Named("kernel-bench")
	for i := 0; i < procs; i++ {
		id := i
		env.Go("bench-proc", func(p *sim.Proc) {
			for j := 0; ; j++ {
				p.Sleep(time.Duration(1+(id+j)%7) * time.Millisecond)
				switch (id + j) % 4 {
				case 0:
					sig.Broadcast()
				default:
					// Mostly signaled before the deadline: the
					// cancelled-timer tombstone path.
					sig.WaitTimeout(p, 50*time.Millisecond)
				}
			}
		})
	}
	for i := 0; i < pings; i++ {
		ping := &kernelPing{env: env, hop: time.Duration(1+i) * 500 * time.Microsecond}
		env.ScheduleDeliver(ping.hop, ping)
	}
	step := 0
	m := measureKernel(kernelMicroSteps, func() uint64 {
		step++
		before := env.Events()
		env.RunUntil(sim.Time(horizon * time.Duration(step) / kernelMicroSteps))
		return env.Events() - before
	})
	env.Stop()
	env.Shutdown()
	return m
}

// KernelBench measures the simulation kernel's raw speed: a pure-kernel
// micro-workload and one full experiment cell. figuresWall, when nonzero,
// records the wall-clock of the sweep the bench rode along with.
func KernelBench(opts SweepOpts, figuresWall time.Duration) (KernelBenchResult, error) {
	res := KernelBenchResult{
		FiguresWallMs: float64(figuresWall.Nanoseconds()) / 1e6,
	}
	res.Micro = kernelMicroWorkload(opts.Seed)

	ramp, steady, down := Phases(opts.Short)
	spec := RunSpec{
		Seed: opts.Seed, Users: 100, Slaves: 2, Scale: 300, ReadRatio: 0.5,
		Loc: SameZone, RampUp: ramp, Steady: steady, RampDown: down,
	}
	var err error
	res.Cell = measureKernel(1, func() uint64 {
		r, rerr := Run(spec)
		if rerr != nil {
			err = rerr
			return 0
		}
		return r.KernelEvents
	})
	if err != nil {
		return res, err
	}
	return res, nil
}

// RenderKernelBench formats BENCH_kernel for the console.
func RenderKernelBench(r KernelBenchResult) string {
	var b strings.Builder
	b.WriteString("BENCH-KERNEL — simulation kernel speed\n\n")
	fmt.Fprintf(&b, "%-28s %14s %12s %12s %14s\n",
		"workload", "events", "events/sec", "ns/event", "allocs/event")
	row := func(name string, m KernelMeasure) {
		fmt.Fprintf(&b, "%-28s %14d %12.0f %12.1f %14.3f\n",
			name, m.Events, m.EventsPerSec, m.NsPerEvent, m.AllocsPerEvent)
	}
	row("micro (pure kernel)", r.Micro)
	row("cell (full model stack)", r.Cell)
	if r.FiguresWallMs > 0 {
		fmt.Fprintf(&b, "\nsurrounding figure sweep wall-clock: %.1fs\n", r.FiguresWallMs/1e3)
	}
	return b.String()
}

// runShardsArm is the same small spec grid through RunShards, serial on one
// call and at full parallelism on the next: any cross-worker state leak or
// completion-order dependence shows up as a byte difference in the merged
// rows.
func runShardsArm(o SweepOpts) func() (any, error) {
	ramp, steady, down := Phases(o.Short)
	var specs []RunSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, RunSpec{
			Seed: o.Seed + int64(i), Users: 50 + 25*i, Slaves: 1 + i%2,
			Scale: 300, ReadRatio: 0.5, Loc: SameZone,
			RampUp: ramp, Steady: steady, RampDown: down,
		})
	}
	parallelism := []int{1, 0} // serial first, then GOMAXPROCS
	call := 0
	return func() (any, error) {
		par := parallelism[call%len(parallelism)]
		call++
		results, err := RunShards(specs, par, nil)
		if err != nil {
			return nil, err
		}
		rows := make([]runRow, len(results))
		for i, r := range results {
			rows[i] = newRunRow(r)
		}
		return rows, nil
	}
}
