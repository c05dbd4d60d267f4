package metrics_test

import (
	"reflect"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/experiment"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/shard"
	"cloudrepl/internal/sim"
)

// lowCap is the reservoir cap of the observed runs: every histogram of a
// short run crosses it many times over.
const lowCap = 64

// Phases of both runs: short, and long enough that each histogram records
// several times lowCap samples.
const (
	users                    = 40
	rampUp, steady, rampDown = 30 * time.Second, 90 * time.Second, 15 * time.Second
)

// reservoirMetrics are the snapshot values a histogram's reservoir computes,
// per histogram: at lowCap they summarise the samples kept, not every one,
// so they differ from the default cap's by design. A histogram's count and
// maximum are exact and stay in the comparison.
var reservoirMetrics = []string{
	"client.exec.mean_ms", "client.exec.p95_ms",
	"shard.latency.single.mean_ms", "shard.latency.single.p95_ms", "shard.latency.single.p99_ms",
	"shard.latency.scatter.mean_ms", "shard.latency.scatter.p95_ms", "shard.latency.scatter.p99_ms",
}

func zeroReservoirMetrics(m map[string]float64) {
	for _, k := range reservoirMetrics {
		if _, ok := m[k]; ok {
			m[k] = 0
		}
	}
}

// observedTwice runs run untraced at the default cap, then traced with every
// histogram past lowCap: the second run's tracer and reservoirs are all the
// observation there is to leak into the model.
func observedTwice[R any](t *testing.T, run func(trace bool) (R, error)) (plain, observed R) {
	t.Helper()
	plain, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.SetHistogramCap(lowCap)()
	if observed, err = run(true); err != nil {
		t.Fatal(err)
	}
	return plain, observed
}

// TestObservingARunNeverChangesIt: tracing a run and metering it past the
// reservoir cap leave every value the model computes as it was — the
// throughput, errors, counters and the kernel's event count. Only the
// reservoir-derived summaries differ. It covers all six histograms of a
// deployment: the Cloudstone driver's three and the handle's one in an
// unsharded run, the shard router's two in a 2-cell one.
func TestObservingARunNeverChangesIt(t *testing.T) {
	t.Run("unsharded", func(t *testing.T) {
		spec := experiment.RunSpec{
			Seed: 5, Users: users, Slaves: 2, ReadRatio: 0.5,
			RampUp: rampUp, Steady: steady, RampDown: rampDown,
		}
		plain, observed := observedTwice(t, func(trace bool) (experiment.RunResult, error) {
			spec.Trace = trace
			return experiment.Run(spec)
		})
		reads, writes := plain.ReadThroughput*steady.Seconds(), plain.WriteThroughput*steady.Seconds()
		if min(reads, writes, plain.Metrics["client.exec.count"]) <= lowCap {
			t.Fatalf("%v steady reads, %v steady writes, %v statements: a histogram never crossed the cap",
				reads, writes, plain.Metrics["client.exec.count"])
		}
		if len(observed.TraceJSON) == 0 {
			t.Fatal("the observed run exported no trace")
		}
		observed.Spec.Trace, observed.TraceJSON = false, nil
		for _, r := range []*experiment.RunResult{&plain, &observed} {
			r.LatencyMsMean, r.WriteLatencyMsMean = 0, 0
			zeroReservoirMetrics(r.Metrics)
		}
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("plain %.3f ops/s, %d events; observed %.3f ops/s, %d events, or another field differs",
				plain.Throughput, plain.KernelEvents, observed.Throughput, observed.KernelEvents)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		plain, observed := observedTwice(t, runSharded)
		single, scatter := plain.Metrics["shard.latency.single.count"], plain.Metrics["shard.latency.scatter.count"]
		if min(single, scatter) <= lowCap {
			t.Fatalf("%v single-key statements, %v scatters: a histogram never crossed the cap", single, scatter)
		}
		for _, r := range []*shardedRun{&plain, &observed} {
			for _, s := range []*metrics.Summary{&r.Driver.Latency, &r.Driver.ReadLatency, &r.Driver.WriteLatency} {
				// N, Min and Max are exact and stay in the comparison.
				s.Mean, s.Median, s.StdDev, s.P95, s.P99 = 0, 0, 0, 0, 0
			}
			zeroReservoirMetrics(r.Metrics)
		}
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("plain %.3f ops/s, %d events; observed %.3f ops/s, %d events, or another field differs",
				plain.Driver.Throughput, plain.Events, observed.Driver.Throughput, observed.Events)
		}
	})
}

// shardedRun is what a sharded Cloudstone run computes.
type shardedRun struct {
	Driver  cloudstone.Result
	Stats   shard.Stats
	PerCell []uint64
	Metrics map[string]float64
	Events  uint64
}

// runSharded runs the Cloudstone mix, friend-feed scatters included, against
// two cells of one master and one slave each.
func runSharded(trace bool) (shardedRun, error) {
	env := sim.NewEnv(11)
	defer env.Shutdown()
	var tracer *obs.Tracer
	if trace {
		tracer = obs.NewTracer(env)
	}
	db, err := core.OpenSharded(env, cloud.New(env, cloud.DefaultConfig()), cluster.Config{
		Mode:   repl.Async,
		Cost:   server.DefaultCostModel(),
		Master: cluster.NodeSpec{Place: experiment.MasterPlacement},
		Slaves: []cluster.NodeSpec{{Place: experiment.MasterPlacement}},
	},
		core.WithShards(2),
		core.WithDatabase(cloudstone.DatabaseName),
		core.WithClientPlace(experiment.MasterPlacement),
		core.WithKeyspace(cloudstone.ShardKeyspace()),
		core.WithPartitionedPreload(func(owns func(table string, key int64) bool) func(*server.DBServer) error {
			return cloudstone.PreloadOwned(300, owns)
		}),
		core.WithTracer(tracer),
	)
	if err != nil {
		return shardedRun{}, err
	}
	driver := cloudstone.NewDriver(db, cloudstone.Config{
		Scale: 300, ReadRatio: 0.5, Users: users,
		RampUp: rampUp, Steady: steady, RampDown: rampDown, CrossShard: true,
	})
	driver.Start(env)
	env.RunUntil(env.Now() + rampUp + steady + rampDown)
	sc := db.Shards()
	return shardedRun{driver.Result(), sc.Stats(), sc.CellThroughput(), db.Metrics(), env.Events()}, nil
}
