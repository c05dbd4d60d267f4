GO ?= go

.PHONY: all build test race race-shards smoke bench-gate bench-history bench-pairs bench-attr bench-assembly bench-json-cmp cover-product fuzz-seed figures figures-full examples vet fmt fmt-check lint lines clean check

all: build vet lint test

# The CI gate (.github/workflows/ci.yml runs exactly this).
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(MAKE) smoke
	$(MAKE) examples
	$(MAKE) bench-gate

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
# (DESIGN.md §8). The first pass also holds the shard router and the proxy:
# a routed connection's scatter legs run as sim processes on pooled
# goroutines and share the connection's cell array, sessions and replies.
race-shards:
	$(GO) test -race -count=2 ./internal/experiment/ ./internal/sim/ ./internal/shard/ ./internal/proxy/
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

# Host-speed gate: the kernel bench (a pure-kernel micro workload and one
# experiment cell) and the planner bench (executor speed by statement shape:
# point read, index scan, hash join, grouped aggregate, the home page's top-N
# over three storage orders, the text search's LIKE scan, replan and recost
# after an ANALYZE, insert, point update on three table sizes, apply of a
# logged insert, one ANALYZE pass, a cluster's preload, restore and
# restore-and-write), the working tree against its parent commit — HEAD~ on a
# clean tree, HEAD on a dirty one — both built from source and run in
# alternated pairs: bench/pairs.sh with no arguments. It fails when the
# kernel's micro or cell ns/event, the cell's allocs/event, or any shape's
# ops/s or allocs/op reads worse than the parent's by more than its bound;
# the bounds and the statistic they apply to are stated once, in
# bench/summary.awk. Each bench runs as a process of its own, the two sides
# back to back. A change that is slower on purpose fails its own gate and says
# so; the next change is compared with it. The change side's last
# BENCH_kernel.json and BENCH_planner.json are left in results/. 100-153 s on
# a 2-vCPU box with the build cache warm (results/pr38/ measures what it can
# tell apart there: allocation regressions always, wall-clock ones only when
# gross).
bench-gate:
	sh bench/pairs.sh

# Performance trajectory: run the gate and append its summary — per metric
# both medians, the median change/parent ratio and the lower/higher/equal
# counts, with the parent, the pair count and the verdict — as one row of the
# append-only bench/history.jsonl. One row per PR, added by the PR itself
# before it is committed, so the commit in its label reads as the parent plus
# "+" and the parent the gate works out is HEAD:
#   make bench-history LABEL="PR 38"
# The row is appended whatever the verdict, and the target fails as the gate
# does; a run that stops part way (a bench failed) appends nothing.
LABEL ?= unlabelled
bench-history:
	sh bench/pairs.sh | tee /dev/stderr | awk -v label="$(LABEL) @ $$(git describe --always --dirty=+)" -f bench/summary.awk >> bench/history.jsonl

# Paired host-cost comparison: the working tree against BASE (by default the
# gate's parent: HEAD~ on a clean tree, HEAD on a dirty one), both built once
# from source, over PAIRS (by default the gate's twelve) alternated pairs of
# `go run ./benchmark -workload w -seconds 15 -trace 0` for each workload w of
# the space-separated list W, and `cloudrepl-bench KERNEL -short` (KERNEL=-all
# times the whole sweep too). Prints every reading, then per metric both
# medians, the median change/parent ratio, how many pairs read
# lower/higher/equal and, for what the gate holds, its verdict (the target
# fails with it). About a minute a pair per workload:
#   make bench-pairs BASE=HEAD~ PAIRS=10 W=shard_write_heavy
#   make bench-pairs PAIRS=3 W="geo_light master_bound read_heavy shard_write_heavy"
W ?= shard_write_heavy
KERNEL ?= -bench-kernel -bench-plan
bench-pairs:
	sh bench/pairs.sh "$(BASE)" "$(PAIRS)" "$(W)" "$(KERNEL)"

# Run-window allocation sites of BASE and of the working tree, for each
# workload of W (W=all: the four of BENCHMARK.json): both trees exported, each copy's benchmark built with
# MemProfileRate = 1 and an allocs profile at the rep's two allocator readings
# (benchmark/ itself is not touched), and `go tool pprof -base` top and peek
# output per workload and side. It fails if the hook lines are not found.
# All four workloads take 26 s on a 2-vCPU box with the build cache warm (a
# cold cache adds ~16 s for the two builds):
#   make bench-attr BASE=HEAD~ W=all > attribution.txt
bench-attr:
	sh bench/attr.sh "$(BASE)" "$(W)"

# Where a cell assembly's host time goes, in BASE and in the working tree:
# both trees exported, bench/assembly_prof_test.go.txt added to each copy's
# benchmark/ as a test (benchmark/ itself is not touched), and for each
# workload of W and each side the µs per assembly and per close over N
# assemblies (default 10 000, GOMAXPROCS=1, under a CPU profile) and pprof's
# cumulative top under benchmark.assemble and under the cell's close; OUT
# keeps the profiles:
#   make bench-assembly BASE=HEAD~ W=shard_write_heavy > assembly.txt
N ?= 10000
bench-assembly:
	sh bench/assembly.sh "$(BASE)" "$(W)" "$(N)" "$(OUT)"

# Virtual-output identity: cloudrepl-bench -all -short -par 1 -json, built and
# run once from an export of BASE (default the parent commit) and once from
# the working tree, and every BENCH_*.json but the wall-clock kernel and
# planner ones compared with cmp. One `identical|differs <file>` line per
# file; fails on any difference. It runs the whole sweep twice (about 8 min
# on two cores), so it is not part of check:
#   make bench-json-cmp BASE=HEAD~ > json_cmp.txt
bench-json-cmp:
	sh bench/jsoncmp.sh "$(BASE)"

# What no product entry point runs: every entry point built with -cover (the
# working tree, or an export of BASE when it is set), run into one
# GOCOVERDIR — cloudrepl-bench -all -short, -determinism -short and -trace,
# cloudrepl-trace over that trace, cloudrepl-lint over the repo, cloudstone's
# default run, benchmark -short and the nine examples — and every function left at 0.0 %
# printed, sorted by file. A function on the list that no test in another
# package needs either goes or says why it stays. BLOCKS=1 lists instead the
# statements left unrun inside every function that ran: each such function
# with its count of unreached statements, then its 0-count blocks by line
# range, and the totals per package. 85 s on a 2-vCPU box with the build
# cache warm; not part of check:
#   make cover-product > change.txt && make cover-product BASE=HEAD~ > parent.txt
#   make cover-product BLOCKS=1 > blocks.txt
BLOCKS ?=
cover-product:
	sh bench/cover.sh "$(BASE)" "$(BLOCKS)"

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

# Run the nine examples and diff each one's stdout against the checked-in
# results/examples/<name>.txt: every example is deterministic per seed, so
# any difference is a behaviour change. One that is meant regenerates its
# file with `go run ./examples/<name> > results/examples/<name>.txt`.
EXAMPLES = quickstart socialcalendar georeplication failover instancelottery chaos elasticity pipeline sharding
examples:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for ex in $(EXAMPLES); do \
		echo "examples/$$ex"; \
		$(GO) run ./examples/$$ex >"$$out" || exit 1; \
		diff -u results/examples/$$ex.txt "$$out" || exit 1; \
	done

clean:
	rm -rf results test_output.txt
