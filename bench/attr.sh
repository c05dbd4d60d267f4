#!/bin/sh
# attr.sh BASE WORKLOADS — run-window allocation sites of commit BASE and
# of the working tree (make bench-attr).
#
# Exports both trees to a temporary directory and, in those copies only, adds
# a hook to benchmark/: runtime.MemProfileRate = 1, and an allocs profile
# written after each of the rep's two allocator readings (h1 before the
# simulated run, h2 after it; runtime.GC first, so the profile is current).
# Each side then runs `benchmark -workload W -reps 1 -trace 0` for each
# workload W of the space-separated list WORKLOADS, from the copy's root; the
# timed rep runs after the warm-up, so its profiles are the ones left. Per
# workload and side it prints the benchmark's allocs_per_op (read with the
# profiler on, so above the unprofiled figure), then `go tool pprof
# -sample_index=alloc_objects -base h1 h2` — objects allocated in the window —
# as the top allocating functions and as a peek at what a connection costs
# once (the routed and the proxy Connect, the session table's On,
# Engine.NewSession), at the scatter's leg path (scatterLegs, Env.Go, proxy
# Exec/ExecInto, Plan.run) and at the slab take every chunk comes from — a
# result's values and row headers (carve), a session, a reply's kept row
# storage and the row store's rows, images, chain nodes and postings — with
# the profile writer's own allocations ignored. WORKLOADS `all` is the four
# workloads of BENCHMARK.json. A tree whose benchmark/rep.go has not exactly one of each
# reading line fails the script: the hook would measure something else.
set -eu
base=${1:-HEAD~}
workloads=${2:-shard_write_heavy}
[ "$workloads" = all ] && workloads="geo_light master_bound read_heavy shard_write_heavy"
peek='shard\.\(\*Cluster\)\.Connect$|proxy\.\(\*Proxy\)\.Connect$|server\.\(\*Sessions\)\.On$|sqlengine\.\(\*Engine\)\.NewSession$|shard\.\(\*Conn\)\.scatterLegs$|sim\.\(\*Env\)\.Go$|proxy\.\(\*Conn\)\.Exec(Into)?$|sqlengine\.\(\*Plan\)\.run$|sqlengine\.\(\*slab\[.*\]\)\.take$'

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-attr.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/parent" "$tmp/change"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base^{commit}")" | tar -x -C "$tmp/parent"
(cd "$root" && git ls-files -co --exclude-standard | while read -r f; do [ -e "$f" ] && echo "$f"; done | tar -c -T - | tar -x -C "$tmp/change")

for side in parent change; do
	rep=$tmp/$side/benchmark/rep.go
	for h in h1 h2; do
		n=$(grep -c "^[[:space:]]*$h := readHost()\$" "$rep" || true)
		if [ "$n" != 1 ]; then
			echo "attr.sh: $side: expected one '$h := readHost()' line in benchmark/rep.go, found $n" >&2
			exit 1
		fi
		sed -i "s/^\([[:space:]]*\)$h := readHost()\$/&\n\1attrProfile(\"$h\")/" "$rep"
	done
	cat >"$tmp/$side/benchmark/attr_hook.go" <<'EOF'
package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

func init() { runtime.MemProfileRate = 1 }

func attrProfile(name string) {
	runtime.GC()
	f, err := os.Create(name + ".pb.gz")
	if err != nil {
		panic(err)
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
}
EOF
	(cd "$tmp/$side" && go build -trimpath -buildvcs=false -o "$tmp/$side-benchmark" ./benchmark)
done

echo "Run-window allocation sites: benchmark -workload W -reps 1 -trace 0 (seed 1), the timed rep;"
echo "base $(git -C "$root" rev-parse --short "$base") -> working tree. Objects: pprof -sample_index=alloc_objects -base h1 h2."
for w in $workloads; do
	for side in parent change; do
		dir=$tmp/$side-$w
		mkdir "$dir"
		rm -f "$tmp/$side/h1.pb.gz" "$tmp/$side/h2.pb.gz"
		(cd "$tmp/$side" && "$tmp/$side-benchmark" -workload "$w" -reps 1 -trace 0 -out "$dir" >"$dir/benchmark.txt")
		for pb in h1 h2; do
			[ -s "$tmp/$side/$pb.pb.gz" ] || { echo "attr.sh: $side $w: no $pb profile written" >&2; exit 1; }
			mv "$tmp/$side/$pb.pb.gz" "$dir/"
		done
		echo
		echo "== $w, $side: allocs_per_op $(tail -n 1 "$dir/benchmark.txt" | grep -o '"allocs_per_op":{"value":[0-9.e+-]*' | sed 's/.*://')"
		go tool pprof -sample_index=alloc_objects -ignore='runtime/pprof|attrProfile' -top -nodecount=14 \
			-base "$dir/h1.pb.gz" "$dir/h2.pb.gz" 2>/dev/null | sed -n '/^Active filters/,$p'
		echo "-- peek: $peek"
		go tool pprof -sample_index=alloc_objects -ignore='runtime/pprof|attrProfile' -peek "$peek" \
			-base "$dir/h1.pb.gz" "$dir/h2.pb.gz" 2>/dev/null | sed -n '/flat  flat%/,$p'
	done
done
