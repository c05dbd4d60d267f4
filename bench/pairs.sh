#!/bin/sh
# pairs.sh [BASE [N [WORKLOADS [BENCHES]]]] — paired host-cost comparison of
# the working tree against commit BASE, and the repo's host-speed gate (make
# bench-gate, make bench-pairs, make bench-history).
#
# With no arguments it is the gate. An empty or absent BASE is worked out —
# HEAD~ on a clean tree, HEAD on a dirty one, so the parent is always the
# commit the change sits on — an empty or absent N is the gate's pair count,
# no workload runs and BENCHES is `-bench-kernel -bench-plan`.
#
# Builds `go run ./benchmark` (when a workload is named) and cloudrepl-bench
# from an export of BASE and from the working tree, then runs N pairs. A pair
# is one run a side of each job — `benchmark -workload W -seconds 15 -trace 0`
# for each workload W of the space-separated list WORKLOADS, then
# `cloudrepl-bench B -short -q -json DIR` for each switch B of BENCHES (a list
# of bench switches, or -all for the whole sweep, whose BENCH_kernel.json adds
# figures_wall_ms) — with the two sides of a job back to back and the side
# that goes first alternating from pair to pair: a shared host's speed drifts
# over seconds, so the closer in time two readings are, the more alike the
# host they saw. The benchmark prints its readings for one named workload at
# a time, so `all` is refused: list the names. Every reading goes to standard
# output as `pair side metric value`: the kernel bench's
# kernel.{micro,cell}.{ns,allocs}_per_event and the planner bench's
# planner.<shape>.{ops_per_sec,allocs_per_op}. The summary gives, per metric,
# both sides' medians, the median of the per-pair ratios change/parent, in how
# many pairs the change read lower, higher and equal, and the gate's bound and
# verdict where the metric is gated; the script exits 1 when one fails. The
# last pair's change-side BENCH_kernel.json and BENCH_planner.json are left in
# the working tree's results/.
set -eu
root=$(git rev-parse --show-toplevel)
base=${1:-}
if [ -z "$base" ]; then
	base=HEAD
	[ -z "$(git -C "$root" status --porcelain)" ] && base=HEAD~
fi
# The gate's pair count: what fits in under 3 min on a 2-vCPU box, at 8-12 s
# a pair (results/pr38/ measures what it buys).
n=${2:-12}
workloads=${3-}
benches=${4:--bench-kernel -bench-plan}
for w in $workloads; do
	if [ "$w" = all ]; then
		echo "pairs.sh: name the workloads, e.g. W=\"geo_light master_bound read_heavy shard_write_heavy\"" >&2
		exit 2
	fi
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/parent"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base^{commit}")" | tar -x -C "$tmp/parent"
cmds=bench:./cmd/cloudrepl-bench
[ -n "$workloads" ] && cmds="benchmark:./benchmark $cmds"
# -trimpath and -buildvcs=false make two builds of one source the same bytes,
# so on an unchanged tree the pairs compare one binary with itself.
for side in parent change; do
	src=$root
	[ "$side" = parent ] && src=$tmp/parent
	(cd "$src" && for cmd in $cmds; do
		go build -trimpath -buildvcs=false -o "$tmp/$side-${cmd%%:*}" "${cmd#*:}" || exit 1
	done)
done

# measure SIDE PAIR JOB: one reading of every metric JOB (a workload, or a
# bench switch) gives, as `pair side metric value`.
measure() {
	side=$1
	pair=$2
	job=$3
	src=$root
	[ "$side" = parent ] && src=$tmp/parent
	out=$tmp/$side-$pair/${job#-}
	mkdir -p "$out"
	case $job in
	-*)
		(cd "$src" && "$tmp/$side-bench" "$job" -short -q -json "$out" >"$out/bench.txt" 2>&1) || {
			cat "$out/bench.txt" >&2
			exit 1
		}
		# Each bench's JSON nests one object per workload or shape, two spaces in.
		for f in "$out"/BENCH_kernel.json "$out"/BENCH_planner.json; do
			[ -f "$f" ] || continue
			awk -v p="$pair" -v s="$side" -v job="$job" '
				FNR == 1 { bench = FILENAME ~ /kernel/ ? "kernel." : "planner." }
				/^  "[a-z0-9_]*": \{$/ { sec = $1; gsub(/[":]/, "", sec); sec = sec "." }
				/^  }/ { sec = "" }
				/"((ns|allocs)_per_event|ops_per_sec|allocs_per_op|figures_wall_ms)"/ {
					gsub(/[",:]/, " "); if ($1 != "figures_wall_ms" || job == "-all") print p, s, bench sec $1, $2
				}' "$f"
		done
		;;
	*)
		(cd "$src" && "$tmp/$side-benchmark" -workload "$job" -seconds 15 -trace 0 -out "$out" >"$out/benchmark.txt")
		tail -n 1 "$out/benchmark.txt" | grep -o '"[a-z0-9_.]*":{"value":[-0-9.e+]*\|"attempted":[0-9]*\|"failed":[0-9]*' |
			sed "s/^\"\([^\"]*\)\":\({\"value\":\)*/$pair $side $job.\1 /"
		;;
	esac
}

(i=1
while [ "$i" -le "$n" ]; do
	for job in $workloads $benches; do
		if [ $((i % 2)) -eq 1 ]; then
			measure parent "$i" "$job"
			measure change "$i" "$job"
		else
			measure change "$i" "$job"
			measure parent "$i" "$job"
		fi
	done
	i=$((i + 1))
done
touch "$tmp/measured") | tee "$tmp/readings"
# A bench that failed ended the loop above, not the pipeline.
[ -f "$tmp/measured" ] || exit 1
for f in "$tmp/change-$n"/*/BENCH_kernel.json "$tmp/change-$n"/*/BENCH_planner.json; do
	if [ -f "$f" ]; then
		mkdir -p "$root/results"
		cp "$f" "$root/results/"
	fi
done

echo
echo "$n pairs, $(git -C "$root" rev-parse --short "$base") -> working tree"
awk -f "$root/bench/summary.awk" "$tmp/readings"
