#!/bin/sh
# pairs.sh BASE N WORKLOADS KERNEL — paired host-cost comparison of the working
# tree against commit BASE (make bench-pairs).
#
# Builds `go run ./benchmark` and cloudrepl-bench from an export of BASE and
# from the working tree, then runs N pairs, the order alternating from pair to
# pair so drift on the machine falls on both sides equally. Each side of a pair
# runs `benchmark -workload W -seconds 15 -trace 0` for each workload W of the
# space-separated list WORKLOADS, then `cloudrepl-bench KERNEL -short -q -json
# DIR` (KERNEL is -bench-kernel, or -all for the whole sweep, whose
# BENCH_kernel.json adds figures_wall_ms). The benchmark prints its readings
# for one named workload at a time, so `all` is refused: list the names.
# Every reading goes to standard output as `pair side metric value`; the
# summary gives, per metric, both sides' medians, the median of the per-pair
# ratios change/parent, and in how many pairs the change read lower, higher
# and equal.
set -eu
base=${1:-HEAD~}
n=${2:-10}
workloads=${3:-shard_write_heavy}
kernel=${4:--bench-kernel}
for w in $workloads; do
	if [ "$w" = all ]; then
		echo "pairs.sh: name the workloads, e.g. W=\"geo_light master_bound read_heavy shard_write_heavy\"" >&2
		exit 2
	fi
done

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/parent"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base^{commit}")" | tar -x -C "$tmp/parent"
# -trimpath and -buildvcs=false make two builds of one source the same bytes,
# so on an unchanged tree the pairs compare one binary with itself.
for side in parent change; do
	src=$root
	[ "$side" = parent ] && src=$tmp/parent
	(cd "$src" && for cmd in benchmark:./benchmark bench:./cmd/cloudrepl-bench; do
		go build -trimpath -buildvcs=false -o "$tmp/$side-${cmd%%:*}" "${cmd#*:}" || exit 1
	done)
done

# measure SIDE PAIR: one reading of every metric, as `pair side metric value`.
measure() {
	side=$1
	pair=$2
	src=$root
	[ "$side" = parent ] && src=$tmp/parent
	out=$tmp/$side-$pair
	for workload in $workloads; do
		mkdir -p "$out/$workload"
		(cd "$src" && "$tmp/$side-benchmark" -workload "$workload" -seconds 15 -trace 0 -out "$out/$workload" >"$out/$workload/benchmark.txt")
		tail -n 1 "$out/$workload/benchmark.txt" | grep -o '"[a-z0-9_.]*":{"value":[-0-9.e+]*\|"attempted":[0-9]*\|"failed":[0-9]*' |
			sed "s/^\"\([^\"]*\)\":\({\"value\":\)*/$pair $side $workload.\1 /"
	done
	(cd "$src" && "$tmp/$side-bench" $kernel -short -q -json "$out" >"$out/bench.txt" 2>&1) || {
		cat "$out/bench.txt" >&2
		exit 1
	}
	awk -v p="$pair" -v s="$side" -v all="$kernel" '
		/"micro"/ { sec = "micro." } /"cell"/ { sec = "cell." } /}/ { sec = "" }
		/"(ns|allocs)_per_event"|"figures_wall_ms"/ {
			gsub(/[",:]/, " "); if ($1 != "figures_wall_ms" || all == "-all") print p, s, "kernel." sec $1, $2
		}' "$out/BENCH_kernel.json"
}

i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		measure parent "$i"
		measure change "$i"
	else
		measure change "$i"
		measure parent "$i"
	fi
	i=$((i + 1))
done | tee "$tmp/readings"

echo
echo "$n pairs, $(git -C "$root" rev-parse --short "$base") -> working tree"
awk '
function median(list, a, k, m, j, x) {
	m = split(list, a, " ")
	for (k = 2; k <= m; k++) {
		x = a[k]
		for (j = k - 1; j >= 1 && a[j] + 0 > x + 0; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
	return m % 2 ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
}
{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; names[++nm] = $3 } pairs[$1] = 1 }
END {
	printf "%-40s %12s %12s %8s %16s\n", "metric", "parent", "change", "ratio", "lower/higher/eq"
	for (k = 1; k <= nm; k++) {
		name = names[k]; pl = ""; cl = ""; rl = ""; lo = 0; hi = 0; eq = 0
		for (p in pairs) {
			a = v[p, "parent", name]; b = v[p, "change", name]
			pl = pl " " a; cl = cl " " b
			if (a + 0 != 0) rl = rl " " b / a
			if (b + 0 < a + 0) lo++; else if (b + 0 > a + 0) hi++; else eq++
		}
		r = rl == "" ? "-" : sprintf("%.3f", median(rl))
		printf "%-40s %12.6g %12.6g %8s %16s\n", name, median(pl), median(cl), r, lo "/" hi "/" eq
	}
}' "$tmp/readings"
