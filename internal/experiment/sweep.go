package experiment

import (
	"fmt"
	"time"

	"cloudrepl/internal/repl"
)

// SweepOpts controls a figure sweep.
type SweepOpts struct {
	// Short shrinks the run protocol to 2/5/1 minutes for quick passes
	// (unit tests, testing.B benchmarks). The full protocol is 10/20/5.
	Short bool
	// Parallelism bounds concurrent runs (each has its own simulation
	// environment); 0 = GOMAXPROCS.
	Parallelism int
	// Seed offsets every run's seed for reproducibility.
	Seed int64
	// Progress, when non-nil, receives a line per completed run.
	Progress func(string)
}

func (o SweepOpts) phases() (ramp, steady, down time.Duration) {
	if o.Short {
		return 2 * time.Minute, 5 * time.Minute, 1 * time.Minute
	}
	return 10 * time.Minute, 20 * time.Minute, 5 * time.Minute
}

// grid is one parameter point the arms of an ablation share: every arm runs
// it in the same zone under async replication from one seed, so the workload
// arrival pattern is identical across arms and the comparison is paired.
type grid struct {
	users, slaves, scale int
	readRatio            float64
}

func (g grid) spec(o SweepOpts) RunSpec {
	ramp, steady, down := o.phases()
	return RunSpec{
		Seed: o.Seed, Users: g.users, Slaves: g.slaves, Scale: g.scale,
		ReadRatio: g.readRatio, Loc: SameZone, Mode: repl.Async,
		RampUp: ramp, Steady: steady, RampDown: down,
	}
}

// Key identifies a sweep point.
type Key struct {
	Loc    Location
	Slaves int
	Users  int
}

// Sweep runs the full cross product of locations × slave counts × user
// counts for one read ratio and data scale, including the unloaded
// (Users=0) baselines needed for relative replication delay. Runs execute
// in parallel, each on its own virtual timeline.
type Sweep struct {
	ReadRatio float64
	Scale     int
	Locs      []Location
	SlaveNums []int
	UserNums  []int
	Opts      SweepOpts

	Results   map[Key]RunResult
	Baselines map[Key]RunResult // Users == 0
}

// Fig2Sweep parameterizes the 50/50 experiment (Figs. 2 and 5): users
// 50–200 in steps of 25, 1–4 slaves, data scale 300.
func Fig2Sweep(opts SweepOpts) *Sweep {
	return &Sweep{
		ReadRatio: 0.50,
		Scale:     300,
		Locs:      []Location{SameZone, DiffZone, DiffRegion},
		SlaveNums: []int{1, 2, 3, 4},
		UserNums:  []int{50, 75, 100, 125, 150, 175, 200},
		Opts:      opts,
	}
}

// Fig3Sweep parameterizes the 80/20 experiment (Figs. 3 and 6): users
// 50–450 in steps of 50, 1–11 slaves, data scale 600.
func Fig3Sweep(opts SweepOpts) *Sweep {
	return &Sweep{
		ReadRatio: 0.80,
		Scale:     600,
		Locs:      []Location{SameZone, DiffZone, DiffRegion},
		SlaveNums: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		UserNums:  []int{50, 100, 150, 200, 250, 300, 350, 400, 450},
		Opts:      opts,
	}
}

// Run executes the sweep. It is safe to call once per Sweep.
func (sw *Sweep) Run() error {
	ramp, steady, down := sw.Opts.phases()
	var specs []RunSpec
	seed := sw.Opts.Seed
	for _, loc := range sw.Locs {
		for _, ns := range sw.SlaveNums {
			for _, us := range append([]int{0}, sw.UserNums...) {
				seed++
				specs = append(specs, RunSpec{
					Seed:      seed,
					Users:     us,
					Slaves:    ns,
					Scale:     sw.Scale,
					ReadRatio: sw.ReadRatio,
					Loc:       loc,
					RampUp:    ramp,
					Steady:    steady,
					RampDown:  down,
				})
			}
		}
	}

	results, err := RunShards(specs, sw.Opts.Parallelism, func(i int, res RunResult) {
		if sw.Opts.Progress != nil {
			sw.Opts.Progress(fmt.Sprintf("%-28s slaves=%-2d users=%-3d tp=%6.2f ops/s delay=%9.1f ms",
				specs[i].Loc, specs[i].Slaves, specs[i].Users, res.Throughput, res.AvgDelayMs))
		}
	})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	sw.Results = make(map[Key]RunResult)
	sw.Baselines = make(map[Key]RunResult)
	for _, res := range results {
		k := Key{res.Spec.Loc, res.Spec.Slaves, res.Spec.Users}
		if k.Users == 0 {
			sw.Baselines[Key{k.Loc, k.Slaves, 0}] = res
		} else {
			sw.Results[k] = res
		}
	}
	return nil
}

// Throughput returns the end-to-end throughput at a sweep point.
func (sw *Sweep) Throughput(loc Location, slaves, users int) float64 {
	return sw.Results[Key{loc, slaves, users}].Throughput
}

// RelativeDelay returns the loaded-minus-baseline average replication
// delay in milliseconds at a sweep point (floored at a tenth of a
// millisecond for log-scale presentation, as delays below the baseline's
// own noise are indistinguishable from zero).
func (sw *Sweep) RelativeDelay(loc Location, slaves, users int) float64 {
	loaded := sw.Results[Key{loc, slaves, users}].AvgDelayMs
	base := sw.Baselines[Key{loc, slaves, 0}].AvgDelayMs
	d := loaded - base
	if d < 0.1 {
		d = 0.1
	}
	return d
}

// SaturationPoint reports, for one location and slave count, the workload
// right after the observed maximum throughput — the paper's definition of
// the saturation point — along with that maximum. ok is false when
// throughput was still rising at the largest measured workload.
func (sw *Sweep) SaturationPoint(loc Location, slaves int) (users int, maxTp float64, ok bool) {
	bestIdx := -1
	for i, us := range sw.UserNums {
		tp := sw.Throughput(loc, slaves, us)
		if tp > maxTp {
			maxTp = tp
			bestIdx = i
		}
	}
	if bestIdx < 0 || bestIdx == len(sw.UserNums)-1 {
		return 0, maxTp, false
	}
	return sw.UserNums[bestIdx+1], maxTp, true
}
