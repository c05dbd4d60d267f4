GO ?= go

.PHONY: all build test race race-shards smoke bench-kernel bench-plan bench-history bench-pairs bench-attr fuzz-seed figures figures-full examples vet fmt fmt-check lint lines clean check

all: build vet lint test

# The CI gate (.github/workflows/ci.yml runs exactly this).
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(MAKE) smoke
	$(MAKE) examples
	$(MAKE) bench-kernel
	$(MAKE) bench-plan

# The seven-analyzer lint suite — four package-local determinism linters
# (simtime, simrand, maporder, closecheck) plus three whole-program
# flow-aware ones (errdrop, mvccalias, sharedstate) — behind the
# gofmt cleanliness gate. cloudrepl-lint is the repo's own multichecker
# (cmd/cloudrepl-lint); suppressions are //cloudrepl:allow-<analyzer> <reason>
# comments and stale ones fail the lint (`-fix-stale` deletes them).
lint: fmt-check
	$(GO) run ./cmd/cloudrepl-lint ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

# Non-test Go lines outside benchmark/ and testdata/: the size ROADMAP tracks
# from one PR to the next. Reported, not gated.
lines:
	@find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs cat | wc -l

race:
	$(GO) test -race ./...

# Dedicated race lane for the packages that fan work onto real goroutines
# (RunShards workers, sweep parallelism) and the kernel they drive — its
# process-wide worker pool included: TestEnvsOnTwoGoroutinesTradeWorkers runs
# two Envs on two goroutines that hand each other workers. -count=2
# reruns shake out schedule-dependent interleavings the first pass misses;
# sharedstate (static) and this lane (dynamic) cover the same bug class from
# both sides. The second pass is engines restored from one image on several
# goroutines at once: each shares the image's tables until it writes one, and
# copies that one out of the image while the others read it. Together they are
# the dynamic check that an engine has one owner at a time and takes no lock
# (DESIGN.md §8).
race-shards:
	$(GO) test -race -count=2 ./internal/experiment/ ./internal/sim/
	$(GO) test -race -count=2 -run 'TestRestore|TestPreload' ./internal/sqlengine/ ./internal/cloudstone/

# End-to-end smoke of the bench CLI, after `check` has run every test under
# -race: six ablations on the short protocol in one process, with
# BENCH_{elastic,pipeline,shard,consist,plan,chaos}.json written into results/
# (all six are checked in and must come out byte-identical: the target ends
# by diffing them against the index; pipeline and chaos pin the replication
# path — the K = 4 applier and a master failover); a traced
# pipeline run written as a Chrome trace-event file, which cloudrepl-trace
# must find complete (every stage — client, pool, proxy, server, binlog,
# apply — has a span and one trace covers the whole chain); the determinism
# sanitizer over every arm the experiment registry declares; and its inject
# self-test, which must fail.
smoke:
	$(GO) run ./cmd/cloudrepl-bench -ablation elastic,pipeline,shard,consist,plan,chaos -short -q -json results
	$(GO) run ./cmd/cloudrepl-bench -trace results/trace.json -q
	$(GO) run ./cmd/cloudrepl-trace -check results/trace.json
	$(GO) run ./cmd/cloudrepl-bench -determinism -short -q
	@if $(GO) run ./cmd/cloudrepl-bench -determinism-inject -short -q >/dev/null 2>&1; then \
		echo "determinism-inject self-test did NOT fail"; exit 1; \
	else echo "determinism-inject self-test failed as it must"; fi
	git diff --exit-code -- results/BENCH_shard.json results/BENCH_consist.json results/BENCH_plan.json results/BENCH_elastic.json \
		results/BENCH_pipeline.json results/BENCH_chaos.json

# Kernel-speed smoke: measure the sim kernel (micro workload + one
# experiment cell), write BENCH_kernel.json into results/, and fail if the
# micro ns/event regresses >20% or the cell's allocs/event rises >5%
# against the checked-in baseline. The cell's ns/event is reported and
# deliberately not gated: on a shared box one reading of it moves 15-25 %,
# more than any change worth gating on. A claim about it is made the way
# CHANGES.md makes them — parent and change built once each and run in
# alternated pairs (ten or more), compared by median and quartiles, with
# `go run ./benchmark -compare` for the virtual side — not by this target.
# Refresh the baseline deliberately with:
#   cp results/BENCH_kernel.json bench/kernel_baseline.json
bench-kernel:
	$(GO) run ./cmd/cloudrepl-bench -bench-kernel -short -q -json results -gate bench

# Planner-speed smoke: executor microbenchmarks on four query shapes (point
# read, index scan, hash join, grouped aggregate), the two scans a Cloudstone
# page spends its host time in (topn_scan: ORDER BY ts DESC LIMIT 10 over the
# same rows stored ascending, descending and shuffled — three rates that must
# stay close; like_scan: title LIKE '%<n> m%' LIMIT 10 over every row), replan (a
# prepared SELECT re-run after each ANALYZE of a table it does not read: no plan
# rebuilt, 0 allocs/op), recost (a prepared join re-run after each ANALYZE of a
# table it reads: the plan re-costed in place, none rebuilt, 0 allocs/op), three
# write shapes (insert, point update, apply of a logged insert on a second
# engine), one ANALYZE pass over the 60 k rows the insert shape leaves, and a
# cluster's set-up (preload: Cloudstone scale 600 loaded by SQL; restore: that
# engine's image restored onto a new one — a warm image: its first restore, in
# the first rep, built the index templates and the read-only view every later
# restore shares, so a restore copies nothing per row; restore_write: a restore
# and then one INSERT into every table, each first copying its table out of the
# image — the clone a restore leaves to a table's first write, ≥ 10× preload's
# rows/s), each best-of-3, with BENCH_planner.json written into results/ and a failure if
# any shape's rate regresses >20% or its allocs/op rises >5% against the
# checked-in baseline. Refresh the baseline deliberately with:
#   cp results/BENCH_planner.json bench/planner_baseline.json
bench-plan:
	$(GO) run ./cmd/cloudrepl-bench -bench-plan -q -json results -gate bench

# Performance trajectory: append this tree's row — kernel bench (micro and cell
# ns/event + allocs/event), the planner bench's shapes, the four benchmark
# cells' allocs_per_op, host.alloc_kb_per_op, setup_s and host-ledger seam
# prices (each layer's self_wall_ns_per_op, sqlengine.run_read/run_write_wall_ns)
# and the wall-clock of the whole `-all -short` sweep (all_short_wall_s) — to
# the append-only bench/history.jsonl. One row per PR, added by the PR itself,
# so the commit in its label reads as the parent plus "+":
#   make bench-history LABEL="PR 15"
# Takes about six minutes on two cores: the cells (one untimed warm-up, one
# timed rep and the traced pass — which is what reports per-layer metrics — of
# each, read back from results/cells beside the -json output), then `make
# figures` with JSON and the row, its two benches run first while the process
# is fresh. Take it on a quiet box: micro ns/event is one reading.
LABEL ?= unlabelled
bench-history:
	$(GO) run ./benchmark -reps 1 -out results/cells
	$(GO) run ./cmd/cloudrepl-bench -all -short -q -csv results -json results \
		-history "bench/history.jsonl:$(LABEL) @ $$(git describe --always --dirty=+)"

# Paired host-cost comparison: the working tree against BASE (default the
# parent commit), both built once from source, over PAIRS alternated pairs of
# `go run ./benchmark -workload w -seconds 15 -trace 0` for each workload w of
# the space-separated list W, and `cloudrepl-bench KERNEL -short` (KERNEL=-all
# times the whole sweep too). Prints every reading, then per metric both
# medians, the median change/parent ratio and how many pairs read
# lower/higher/equal. About a minute a pair per workload:
#   make bench-pairs BASE=HEAD~ PAIRS=10 W=shard_write_heavy
#   make bench-pairs PAIRS=3 W="geo_light master_bound read_heavy shard_write_heavy"
BASE ?= HEAD~
PAIRS ?= 10
W ?= shard_write_heavy
KERNEL ?= -bench-kernel
bench-pairs:
	sh bench/pairs.sh "$(BASE)" "$(PAIRS)" "$(W)" "$(KERNEL)"

# Run-window allocation sites of BASE and of the working tree, for each
# workload of W: both trees exported, each copy's benchmark built with
# MemProfileRate = 1 and an allocs profile at the rep's two allocator readings
# (benchmark/ itself is not touched), and `go tool pprof -base` top and peek
# output per workload and side. It fails if the hook lines are not found.
# All four workloads take 26 s on a 2-vCPU box with the build cache warm (a
# cold cache adds ~16 s for the two builds):
#   make bench-attr W="geo_light shard_write_heavy" > attribution.txt
bench-attr:
	sh bench/attr.sh "$(BASE)" "$(W)"

# One pass over the checked-in fuzz corpora (no new input generation: every
# seed must keep passing) — binlog wire decoding, SQL parsing (the
# JOIN/GROUP BY/EXPLAIN grammar the planner PR added) and the compiled LIKE
# matcher against the matcher it replaced.
fuzz-seed:
	$(GO) test ./internal/binlog ./internal/sqlengine -run '^Fuzz' -count=1

# Regenerate every figure, table and ablation with the quick protocol.
figures:
	$(GO) run ./cmd/cloudrepl-bench -all -short -csv results

# Full-protocol panels (the paper's 10/20/5-minute runs; slower).
figures-full:
	$(GO) run ./cmd/cloudrepl-bench -all -csv results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialcalendar
	$(GO) run ./examples/georeplication
	$(GO) run ./examples/failover
	$(GO) run ./examples/instancelottery
	$(GO) run ./examples/chaos
	$(GO) run ./examples/elasticity
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/sharding

clean:
	rm -rf results test_output.txt
