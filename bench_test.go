// Benchmarks regenerating the paper's evaluation artifacts in compact form
// (one bench per figure/table/ablation; see EXPERIMENTS.md for the mapping
// and cmd/cloudrepl-bench for the full panels). Each iteration executes
// complete experiment runs on virtual time; the interesting output is the
// custom metrics (ops/s, delay ms, …), not ns/op.
//
//	go test -bench=. -benchmem
package cloudrepl_test

import (
	"testing"
	"time"

	"cloudrepl/internal/experiment"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// benchSpec returns a compact-protocol spec (1 min ramp, 3 min steady).
func benchSpec(seed int64, users, slaves int, loc experiment.Location, ratio float64, scale int) experiment.RunSpec {
	return experiment.RunSpec{
		Seed: seed, Users: users, Slaves: slaves, Scale: scale,
		ReadRatio: ratio, Loc: loc,
		RampUp: time.Minute, Steady: 3 * time.Minute, RampDown: 30 * time.Second,
	}
}

func mustRun(b *testing.B, spec experiment.RunSpec) experiment.RunResult {
	b.Helper()
	res, err := experiment.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig2Throughput5050 regenerates Fig. 2's key points: 50/50
// ratio, data size 300. The 1-slave point saturates the slave near 100
// users; the 4-slave point is master-bound near 175–200 users.
func BenchmarkFig2Throughput5050(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oneSlave := mustRun(b, benchSpec(100, 100, 1, experiment.SameZone, 0.5, 300))
		fourSlaves := mustRun(b, benchSpec(101, 200, 4, experiment.SameZone, 0.5, 300))
		b.ReportMetric(oneSlave.Throughput, "tp_1slv_100u(ops/s)")
		b.ReportMetric(fourSlaves.Throughput, "tp_4slv_200u(ops/s)")
		b.ReportMetric(oneSlave.SlaveUtil[0]*100, "slaveutil_1slv(%)")
		b.ReportMetric(fourSlaves.MasterUtil*100, "masterutil_4slv(%)")
	}
}

// BenchmarkFig3Throughput8020 regenerates Fig. 3's key points: 80/20
// ratio, data size 600; throughput scales with slaves until the master
// saturates near 10 slaves.
func BenchmarkFig3Throughput8020(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one := mustRun(b, benchSpec(200, 100, 1, experiment.SameZone, 0.8, 600))
		ten := mustRun(b, benchSpec(201, 450, 10, experiment.SameZone, 0.8, 600))
		b.ReportMetric(one.Throughput, "tp_1slv_100u(ops/s)")
		b.ReportMetric(ten.Throughput, "tp_10slv_450u(ops/s)")
		b.ReportMetric(ten.MasterUtil*100, "masterutil_10slv(%)")
	}
}

// BenchmarkFig4ClockSync regenerates the clock experiment (and the T-NTP
// statistics): paper medians 28.23 ms (sync once) and 3.30 ms (every
// second).
func BenchmarkFig4ClockSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		once, every := experiment.Fig4(99)
		b.ReportMetric(once.Stats.Median, "median_once(ms)")
		b.ReportMetric(once.Stats.StdDev, "sigma_once(ms)")
		b.ReportMetric(every.Stats.Median, "median_1s(ms)")
		b.ReportMetric(every.Stats.StdDev, "sigma_1s(ms)")
	}
}

// BenchmarkFig5Delay5050 regenerates Fig. 5's trends: relative replication
// delay grows with workload and shrinks when slaves are added.
func BenchmarkFig5Delay5050(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base2 := mustRun(b, benchSpec(300, 0, 2, experiment.SameZone, 0.5, 300))
		low := mustRun(b, benchSpec(301, 50, 2, experiment.SameZone, 0.5, 300))
		high := mustRun(b, benchSpec(302, 150, 2, experiment.SameZone, 0.5, 300))
		base4 := mustRun(b, benchSpec(303, 0, 4, experiment.SameZone, 0.5, 300))
		high4 := mustRun(b, benchSpec(304, 150, 4, experiment.SameZone, 0.5, 300))
		b.ReportMetric(low.AvgDelayMs-base2.AvgDelayMs, "reldelay_2slv_50u(ms)")
		b.ReportMetric(high.AvgDelayMs-base2.AvgDelayMs, "reldelay_2slv_150u(ms)")
		b.ReportMetric(high4.AvgDelayMs-base4.AvgDelayMs, "reldelay_4slv_150u(ms)")
	}
}

// BenchmarkFig6Delay8020 regenerates Fig. 6's trends at 80/20 with the
// different-region placement (geography shifts the baseline, workload
// moves the loaded delay by orders of magnitude).
func BenchmarkFig6Delay8020(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := mustRun(b, benchSpec(400, 0, 4, experiment.DiffRegion, 0.8, 600))
		low := mustRun(b, benchSpec(401, 100, 4, experiment.DiffRegion, 0.8, 600))
		high := mustRun(b, benchSpec(402, 300, 4, experiment.DiffRegion, 0.8, 600))
		b.ReportMetric(base.AvgDelayMs, "baseline_delay(ms)")
		b.ReportMetric(low.AvgDelayMs-base.AvgDelayMs, "reldelay_100u(ms)")
		b.ReportMetric(high.AvgDelayMs-base.AvgDelayMs, "reldelay_300u(ms)")
	}
}

// BenchmarkTableRTT regenerates the §IV-B.2 half-RTT measurements
// (paper: 16 / 21 / 173 ms).
func BenchmarkTableRTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.TableRTT(7)
		for _, r := range rows {
			switch r.Loc {
			case experiment.SameZone:
				b.ReportMetric(r.HalfRTTMs, "halfrtt_samezone(ms)")
			case experiment.DiffZone:
				b.ReportMetric(r.HalfRTTMs, "halfrtt_diffzone(ms)")
			case experiment.DiffRegion:
				b.ReportMetric(r.HalfRTTMs, "halfrtt_diffregion(ms)")
			}
		}
	}
}

// BenchmarkAblationSyncModes compares async / semi-sync / sync write
// latencies across regions (A-SYNC).
func BenchmarkAblationSyncModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mode := range []repl.Mode{repl.Async, repl.Sync} {
			spec := benchSpec(500+int64(mode), 75, 2, experiment.DiffRegion, 0.5, 300)
			spec.Mode = mode
			res := mustRun(b, spec)
			b.ReportMetric(res.WriteLatencyMsMean, "wlat_"+mode.String()+"(ms)")
			b.ReportMetric(res.Throughput, "tp_"+mode.String()+"(ops/s)")
		}
	}
}

// BenchmarkAblationBalancers compares round-robin vs the staleness-bounded
// balancer past saturation (A-LB).
func BenchmarkAblationBalancers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.AblationBalancers(experiment.SweepOpts{Short: true, Seed: 600})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "round-robin" {
				b.ReportMetric(r.Res.Throughput, "tp_roundrobin(ops/s)")
			}
			if r.Name == "staleness-bounded(30)" {
				b.ReportMetric(r.Res.Throughput, "tp_stalebound(ops/s)")
				b.ReportMetric(float64(r.Res.ProxyStats.MasterFallbacks), "fallbacks")
			}
		}
	}
}

// BenchmarkAblationInstanceVariation measures the throughput spread from
// the CoV-21% instance lottery (A-VAR).
func BenchmarkAblationInstanceVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := experiment.AblationInstanceVariation(experiment.SweepOpts{Short: true, Seed: 700}, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v.MeanTp, "mean_tp(ops/s)")
		b.ReportMetric(v.CoV*100, "tp_cov(%)")
	}
}

// --- library micro-benchmarks ---

// BenchmarkSQLEnginePointSelect measures the engine's indexed read path.
func BenchmarkSQLEnginePointSelect(b *testing.B) {
	eng := sqlengine.NewEngine()
	eng.CreateDatabase("d", false)
	s := eng.NewSession("d")
	s.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(32))")
	ins, err := eng.Prepare("INSERT INTO t (id, v) VALUES (?, 'x')")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ins.Run(s, sqlengine.NewInt(int64(i)))
	}
	point, err := eng.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := point.Run(s, sqlengine.NewInt(int64(i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLEngineInsert measures the engine's write path.
func BenchmarkSQLEngineInsert(b *testing.B) {
	eng := sqlengine.NewEngine()
	eng.CreateDatabase("d", false)
	s := eng.NewSession("d")
	s.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(32), INDEX idx_v (v))")
	ins, err := eng.Prepare("INSERT INTO t (id, v) VALUES (?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ins.Run(s,
			sqlengine.NewInt(int64(i)), sqlengine.NewString("val")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLParse measures the parser on a representative statement.
func BenchmarkSQLParse(b *testing.B) {
	const q = "SELECT e.id, e.title FROM event_tags et JOIN events e ON e.id = et.event_id WHERE et.tag_id = ? ORDER BY e.created DESC LIMIT 20"
	for i := 0; i < b.N; i++ {
		if _, err := sqlengine.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEvents measures raw kernel event throughput (events/s drive
// how fast 35-minute experiments complete).
func BenchmarkSimEvents(b *testing.B) {
	env := sim.NewEnv(1)
	for i := 0; i < 100; i++ {
		env.Go("ticker", func(p *sim.Proc) {
			for {
				p.Sleep(time.Millisecond)
			}
		})
	}
	b.ResetTimer()
	env.RunUntil(sim.Time(b.N) * 10 * time.Microsecond)
	b.StopTimer()
	env.Stop()
	env.Shutdown()
}
