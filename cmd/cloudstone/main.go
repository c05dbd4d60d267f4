// Command cloudstone runs a single load test against a freshly built
// replicated cluster and prints the measured throughput, latency,
// utilization and replication delay:
//
//	cloudstone -users 150 -slaves 3 -ratio 0.5 -scale 300 -loc same-zone
//	cloudstone -users 400 -slaves 10 -ratio 0.8 -scale 600 -loc diff-region -short
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"cloudrepl/internal/experiment"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
)

func main() {
	users := flag.Int("users", 100, "concurrent emulated users")
	slaves := flag.Int("slaves", 2, "number of slave replicas")
	ratio := flag.Float64("ratio", 0.5, "read ratio (0.5 or 0.8 in the paper)")
	scale := flag.Int("scale", 300, "initial data size")
	locFlag := flag.String("loc", "same-zone", "slave location: same-zone, diff-zone, diff-region")
	modeFlag := flag.String("mode", "async", "replication mode: async, semi-sync, sync")
	balFlag := flag.String("balancer", "round-robin", "read balancer: round-robin, random, least-conn, least-lag, staleness-bounded")
	short := flag.Bool("short", false, "2/5/1-minute protocol instead of 10/20/5")
	hetero := flag.Bool("hetero", false, "sample instance CPU speeds with CoV 21%")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	var loc experiment.Location
	switch *locFlag {
	case "same-zone":
		loc = experiment.SameZone
	case "diff-zone":
		loc = experiment.DiffZone
	case "diff-region":
		loc = experiment.DiffRegion
	default:
		fmt.Fprintf(os.Stderr, "unknown location %q\n", *locFlag)
		os.Exit(2)
	}
	var mode repl.Mode
	switch *modeFlag {
	case "async":
		mode = repl.Async
	case "semi-sync":
		mode = repl.SemiSync
	case "sync":
		mode = repl.Sync
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}
	spec := experiment.RunSpec{
		Seed: *seed, Users: *users, Slaves: *slaves, Scale: *scale,
		ReadRatio: *ratio, Loc: loc, Mode: mode, Heterogeneous: *hetero,
	}
	spec.RampUp, spec.Steady, spec.RampDown = experiment.Phases(*short)
	switch *balFlag {
	case "round-robin":
	case "random":
		spec.Balancer = func() proxy.Balancer { return proxy.Random{} }
	case "least-conn":
		spec.Balancer = func() proxy.Balancer { return proxy.LeastConn{} }
	case "least-lag":
		spec.Balancer = func() proxy.Balancer { return proxy.LeastLag{} }
	case "staleness-bounded": // round-robin among slaves ≤ 30 events behind, else the master
		spec.Consistency, spec.MaxStaleEvents = proxy.Bounded, 30
	default:
		fmt.Fprintf(os.Stderr, "unknown balancer %q\n", *balFlag)
		os.Exit(2)
	}

	fmt.Printf("cloudstone: %d users, %d slaves, %.0f/%.0f, scale %d, %s, %s replication\n\n",
		*users, *slaves, *ratio*100, (1-*ratio)*100, *scale, loc, mode)
	res, err := experiment.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudstone:", err)
		os.Exit(1)
	}

	fmt.Printf("end-to-end throughput: %8.2f ops/s (reads %.2f, writes %.2f)\n",
		res.Throughput, res.ReadThroughput, res.WriteThroughput)
	fmt.Printf("operation latency:     %8.1f ms mean (writes %.1f ms)\n", res.LatencyMsMean, res.WriteLatencyMsMean)
	fmt.Printf("errors:                %8d\n", res.Errors)
	fmt.Printf("master CPU:            %8.0f%%\n", res.MasterUtil*100)
	for i, u := range res.SlaveUtil {
		fmt.Printf("slave%-2d CPU:           %8.0f%%   heartbeat delay %.1f ms\n", i+1, u*100, res.PerSlaveDelayMs[i])
	}
	if res.ProxyStats.MasterFallbacks > 0 {
		fmt.Printf("master fallback reads: %8d\n", res.ProxyStats.MasterFallbacks)
	}
	sort.Float64s(res.PerSlaveDelayMs)
	fmt.Printf("avg replication delay: %8.1f ms (raw, incl. clock offset)\n", res.AvgDelayMs)

	if len(res.LagSeries) > 0 {
		fmt.Println("\nslave backlog over the run (events behind master, sampled per minute):")
		for _, series := range res.LagSeries {
			fmt.Printf("  %-8s", series.Name)
			pts := series.Points()
			for i, pt := range pts {
				if i%4 != 0 { // 15s samples → per-minute display
					continue
				}
				fmt.Printf(" %6.0f", pt.V)
			}
			fmt.Println()
		}
	}
}
