GO ?= go

.PHONY: all build test race race-shards smoke bench-kernel bench-plan bench-history fuzz-seed figures figures-full examples vet fmt fmt-check lint clean check

all: build vet lint test

# The CI gate (.github/workflows/ci.yml runs exactly this).
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(MAKE) smoke
	$(MAKE) bench-kernel
	$(MAKE) bench-plan

# The nine-analyzer lint suite — five package-local determinism linters
# (simtime, simrand, rawgo, maporder, closecheck) plus four whole-program
# flow-aware ones (errdrop, lockorder, mvccalias, sharedstate) — behind the
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

race:
	$(GO) test -race ./...

# Dedicated race lane for the packages that fan work onto real goroutines
# (RunShards workers, sweep parallelism) and the kernel they drive. -count=2
# reruns shake out schedule-dependent interleavings the first pass misses;
# sharedstate (static) and this lane (dynamic) cover the same bug class from
# both sides.
race-shards:
	$(GO) test -race -count=2 ./internal/experiment/ ./internal/sim/

# End-to-end smoke of the bench CLI, after `check` has run every test under
# -race: five ablations on the short protocol in one process, with
# BENCH_{elastic,pipeline,shard,consist,plan}.json written into results/
# (all but pipeline are checked in and must come out byte-identical: the
# target ends by diffing them against the index); a traced
# pipeline run written as a Chrome trace-event file, which cloudrepl-trace
# must find complete (every stage — client, pool, proxy, server, binlog,
# apply — has a span and one trace covers the whole chain); the determinism
# sanitizer over every arm the experiment registry declares; and its inject
# self-test, which must fail.
smoke:
	$(GO) run ./cmd/cloudrepl-bench -ablation elastic,pipeline,shard,consist,plan -short -q -json results
	$(GO) run ./cmd/cloudrepl-bench -trace results/trace.json -q
	$(GO) run ./cmd/cloudrepl-trace -check results/trace.json
	$(GO) run ./cmd/cloudrepl-bench -determinism -short -q
	@if $(GO) run ./cmd/cloudrepl-bench -determinism-inject -short -q >/dev/null 2>&1; then \
		echo "determinism-inject self-test did NOT fail"; exit 1; \
	else echo "determinism-inject self-test failed as it must"; fi
	git diff --exit-code -- results/BENCH_shard.json results/BENCH_consist.json results/BENCH_plan.json results/BENCH_elastic.json

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
# rebuilt, 0 allocs/op), three
# write shapes (insert, point update, apply of a logged insert on a second
# engine), one ANALYZE pass over the 60 k rows the insert shape leaves, and a
# cluster's set-up (preload: Cloudstone scale 600 loaded by SQL; restore: that
# engine's image restored onto a new one, ≥ 4× the rows/s), each best-of-3, with BENCH_planner.json written into results/ and a failure if
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
