package main

import "sort"

// Every number the benchmark reports is in one of two named currencies.
// Virtual (_vms, _vsec, counts made on the virtual timeline) is what the
// modelled EC2 tier would take: a pure function of workload, protocol and
// seed. Host (wall_, alloc, _wall_ns, host.*) is what the simulator costs to
// run on this machine.
const (
	virtual = "virtual"
	host    = "host"
)

// metric describes one reported number. BENCHMARK.json repeats name, unit,
// direction and (for end-to-end metrics) bound; the smoke test keeps the two
// in step.
type metric struct {
	Name     string
	Unit     string
	Better   string  // "lower" or "higher"
	Bound    float64 // end-to-end only: admissible worsening as a share of the baseline median
	Currency string
}

// endToEnd are the metrics a user of the system would see, one value per
// workload, each with the bound a later change may worsen it by.
var endToEnd = []metric{
	{"ops_per_vsec", "ops/vs", "higher", 0.10, virtual},
	{"read_latency_p50_vms", "vms", "lower", 0.25, virtual},
	{"read_latency_mean_vms", "vms", "lower", 0.25, virtual},
	{"write_latency_p50_vms", "vms", "lower", 0.25, virtual},
	{"write_latency_mean_vms", "vms", "lower", 0.25, virtual},
	{"repl_delay_p50_vms", "vms", "lower", 0.15, virtual},
	{"repl_delay_p95_vms", "vms", "lower", 0.25, virtual},
	{"allocs_per_op", "count", "lower", 0.15, host},
	{"setup_s", "s", "lower", 0.25, host},
}

// perLayer are the single-layer metrics, named <module>.<metric>. They carry
// no bound: they say where an end-to-end change came from.
var perLayer = []metric{
	{"sim.events_per_op", "count", "lower", 0, virtual},
	{"sim.wall_ns_per_event", "ns", "lower", 0, host},
	{"sim.dispatch_wall_ns", "ns", "lower", 0, host},

	{"cloud.master_cpu_util", "share", "lower", 0, virtual},
	{"cloud.slave_cpu_util_max", "share", "lower", 0, virtual},
	{"cloud.transit_vms_per_op", "vms", "lower", 0, virtual},
	{"cloud.transit_wall_ns", "ns", "lower", 0, host},

	{"core.read_latency_p95_vms", "vms", "lower", 0, virtual},
	{"core.read_latency_p99_vms", "vms", "lower", 0, virtual},
	{"core.write_latency_p95_vms", "vms", "lower", 0, virtual},
	{"core.write_latency_p99_vms", "vms", "lower", 0, virtual},
	{"core.client_vms_per_op", "vms", "lower", 0, virtual},
	{"core.self_wall_ns_per_op", "ns", "lower", 0, host},

	{"pool.wait_share", "share", "lower", 0, virtual},
	{"pool.borrow_vms_per_op", "vms", "lower", 0, virtual},
	{"pool.self_wall_ns_per_op", "ns", "lower", 0, host},

	{"proxy.attempts_per_stmt", "count", "lower", 0, virtual},
	{"proxy.reads_at_master_share", "share", "lower", 0, virtual},
	{"proxy.route_vms_per_op", "vms", "lower", 0, virtual},
	{"proxy.self_wall_ns_per_op", "ns", "lower", 0, host},

	{"server.busy_vms_per_read", "vms", "lower", 0, virtual},
	{"server.busy_vms_per_write", "vms", "lower", 0, virtual},
	{"server.wait_vms_per_op", "vms", "lower", 0, virtual},
	{"server.exec_vms_p95", "vms", "lower", 0, virtual},
	{"server.self_wall_ns_per_op", "ns", "lower", 0, host},

	{"sqlengine.rows_examined_per_read", "count", "lower", 0, virtual},
	{"sqlengine.rows_examined_per_write", "count", "lower", 0, virtual},
	{"sqlengine.rows_returned_per_read", "count", "higher", 0, virtual},
	{"sqlengine.index_used_share", "share", "higher", 0, virtual},
	{"sqlengine.gc_runs", "count", "lower", 0, virtual},
	{"sqlengine.gc_versions", "count", "lower", 0, virtual},
	{"sqlengine.parse_wall_ns", "ns", "lower", 0, host},
	{"sqlengine.prepare_wall_ns", "ns", "lower", 0, host},
	{"sqlengine.plan_wall_ns", "ns", "lower", 0, host},
	{"sqlengine.run_read_wall_ns", "ns", "lower", 0, host},
	{"sqlengine.run_write_wall_ns", "ns", "lower", 0, host},
	{"sqlengine.run_read_allocs", "count", "lower", 0, host},
	{"sqlengine.run_write_allocs", "count", "lower", 0, host},

	{"binlog.entries", "count", "higher", 0, virtual},
	{"binlog.bytes_per_write", "B", "lower", 0, virtual},
	{"binlog.append_wall_ns", "ns", "lower", 0, host},
	{"binlog.encode_wall_ns_per_entry", "ns", "lower", 0, host},
	{"binlog.decode_wall_ns_per_entry", "ns", "lower", 0, host},

	{"repl.backlog_events_end", "count", "lower", 0, virtual},
	{"repl.relay_backlog_max", "count", "lower", 0, virtual},
	{"repl.applied_per_write", "count", "higher", 0, virtual},
	{"repl.apply_errors", "count", "lower", 0, virtual},
	{"repl.ship_vms_per_batch", "vms", "lower", 0, virtual},
	{"repl.apply_vms_mean", "vms", "lower", 0, virtual},
	{"repl.apply_vms_p95", "vms", "lower", 0, virtual},
	{"repl.apply_wall_ns_per_event", "ns", "lower", 0, host},

	{"shard.single_key_share", "share", "higher", 0, virtual},
	{"shard.scatter_legs_per_scatter", "count", "lower", 0, virtual},
	{"shard.wrong_shard_retries", "count", "lower", 0, virtual},
	{"shard.cell_ops_imbalance", "share", "lower", 0, virtual},
	{"shard.single_vms_p95", "vms", "lower", 0, virtual},
	{"shard.scatter_vms_p95", "vms", "lower", 0, virtual},
	{"shard.self_wall_ns_per_op", "ns", "lower", 0, host},

	{"heartbeat.samples", "count", "higher", 0, virtual},
	{"heartbeat.missing_share", "share", "lower", 0, virtual},

	{"obs.trace_wall_overhead_share", "share", "lower", 0, host},
	{"obs.spans_per_op", "count", "lower", 0, virtual},

	{"host.wall_us_per_op", "us", "lower", 0, host},
	{"host.cpu_us_per_op", "us", "lower", 0, host},
	{"host.alloc_kb_per_op", "KB", "lower", 0, host},
	{"host.gc_cycles", "count", "lower", 0, host},
	{"host.gc_pause_ms_total", "ms", "lower", 0, host},
	{"host.heap_sys_mb", "MB", "lower", 0, host},
	{"host.vsec_per_wall_s", "vs/s", "higher", 0, host},

	{"ledger.coverage_share", "share", "higher", 0, host},
}

// quartiles returns the first quartile, median and third quartile exactly as
// Python's statistics.quantiles(xs, n=4) does, so the spreads printed here
// are the ones the pipeline computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
