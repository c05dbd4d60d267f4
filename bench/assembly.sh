#!/bin/sh
# assembly.sh BASE WORKLOADS [N [OUT]] — where a cell assembly's host time
# goes, in commit BASE and in the working tree (make bench-assembly).
#
# Exports both trees to a temporary directory and, in those copies only,
# adds bench/assembly_prof_test.go.txt to benchmark/ as a test file
# (benchmark/ itself is not touched). Its TestAssemblyProfile warms 200
# assemblies of a workload's cell, then assembles and closes it N times
# (default 10000) under a CPU profile and logs the mean wall time of an
# assemble + close and of the close alone. Each side's test binary runs once
# per workload W of the space-separated list WORKLOADS, parent first, at
# GOMAXPROCS=1. Per workload and side it prints the µs per assembly and per
# close, `go tool pprof -top -cum -focus='benchmark.assemble$'` and the same
# focused on `benchmark.(*cell).close` — cumulative seconds over N
# assemblies, so 1 s is 1e6/N µs an assembly. With OUT, each profile is kept
# there as <workload>.<side>.prof.
set -eu
base=${1:-HEAD~}
workloads=${2:-shard_write_heavy}
n=${3:-10000}
out=${4:-}
for w in $workloads; do
	if [ "$w" = all ]; then
		echo "assembly.sh: name the workloads, e.g. W=\"geo_light master_bound read_heavy shard_write_heavy\"" >&2
		exit 2
	fi
done

root=$(git rev-parse --show-toplevel)
harness=$root/bench/assembly_prof_test.go.txt
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-assembly.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/parent" "$tmp/change"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base^{commit}")" | tar -x -C "$tmp/parent"
(cd "$root" && git ls-files -co --exclude-standard | while read -r f; do [ -e "$f" ] && echo "$f"; done | tar -c -T - | tar -x -C "$tmp/change")
[ -n "$out" ] && mkdir -p "$out"

for side in parent change; do
	cp "$harness" "$tmp/$side/benchmark/assembly_prof_test.go"
	(cd "$tmp/$side" && go test -c -trimpath -buildvcs=false -o "$tmp/$side.test" ./benchmark)
done

echo "Cell assembly: benchmark assemble + close, seed 7, short protocol, GOMAXPROCS=1, N=$n;"
echo "base $(git -C "$root" rev-parse --short "$base") -> working tree."
for w in $workloads; do
	for side in parent change; do
		prof=$tmp/$w.$side.prof
		log=$(cd "$tmp/$side/benchmark" && GOMAXPROCS=1 W="$w" N="$n" PROF="$prof" \
			"$tmp/$side.test" -test.run '^TestAssemblyProfile$' -test.v -test.count=1)
		us=$(echo "$log" | grep -o '[0-9.]* us per assembly' || true)
		cus=$(echo "$log" | grep -o '[0-9.]* us per close' || true)
		[ -n "$us" ] && [ -n "$cus" ] || { echo "$log" >&2; echo "assembly.sh: $side $w: no reading" >&2; exit 1; }
		echo
		echo "== $w, $side: $us, $cus"
		go tool pprof -top -cum -focus='benchmark.assemble$' -nodecount=40 "$prof" 2>/dev/null | sed -n '/^Active filters/,$p'
		echo
		echo "-- $w, $side: under close"
		go tool pprof -top -cum -focus='benchmark.\(\*cell\).close$' -nodecount=25 "$prof" 2>/dev/null | sed -n '/^Active filters/,$p'
		[ -z "$out" ] || cp "$prof" "$out/"
	done
done
