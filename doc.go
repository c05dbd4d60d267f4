// Package cloudrepl reproduces "Application-Managed Database Replication
// on Virtualized Cloud Environments" (Zhao, Sakr, Fekete, Wada, Liu; ICDE
// Workshops 2012) as a self-contained Go system.
//
// The public surface lives in internal/core (the application-managed
// replicated database handle) with the substrates underneath:
//
//   - internal/sim        — process-based discrete-event simulation kernel
//   - internal/cloud      — simulated EC2: regions, zones, instances, network
//   - internal/vclock     — drifting instance clocks and NTP daemons
//   - internal/sqlengine  — embeddable MySQL-flavored SQL engine
//   - internal/binlog     — statement-based binary log
//   - internal/repl       — master-slave replication (async/semi-sync/sync)
//   - internal/server     — database servers with a virtual CPU cost model
//   - internal/pool       — DBCP-style connection pool
//   - internal/proxy      — Connector/J-style read/write splitting balancer
//   - internal/cluster    — topology build-out, elasticity, failover
//   - internal/cloudstone — the customized Cloudstone workload
//   - internal/heartbeat  — the replication-delay measurement plugin
//   - internal/experiment — the harness regenerating every figure and table
//
// cmd/cloudrepl-bench regenerates every figure, table and ablation. See
// README.md, DESIGN.md and EXPERIMENTS.md.
package cloudrepl
