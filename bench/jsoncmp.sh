#!/bin/sh
# jsoncmp.sh BASE — byte comparison of the virtual BENCH JSONs of the working
# tree against commit BASE (make bench-json-cmp).
#
# Builds cloudrepl-bench from an export of BASE and from the working tree,
# runs `cloudrepl-bench -all -short -par 1 -json DIR` on each, and compares
# every BENCH_*.json either side wrote with cmp, except the wall-clock
# BENCH_kernel.json and BENCH_planner.json. Prints one `identical <file>` or
# `differs <file>` line per file and exits 1 when any file differs or is
# missing on one side.
set -eu
base=${1:-HEAD~}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-json-cmp.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/parent"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base^{commit}")" | tar -x -C "$tmp/parent"
# Both built before either runs, so the change side is the tree as it was
# when the target started.
for side in parent change; do
	src=$root
	[ "$side" = parent ] && src=$tmp/parent
	(cd "$src" && go build -trimpath -buildvcs=false -o "$tmp/$side-bench" ./cmd/cloudrepl-bench)
done
for side in parent change; do
	src=$root
	[ "$side" = parent ] && src=$tmp/parent
	mkdir "$tmp/$side-json"
	(cd "$src" && "$tmp/$side-bench" -all -short -par 1 -q -json "$tmp/$side-json" >"$tmp/$side.txt" 2>&1) || {
		cat "$tmp/$side.txt" >&2
		exit 1
	}
done

status=0
for f in $(for side in parent change; do ls "$tmp/$side-json"; done | grep '^BENCH_.*\.json$' | grep -v '^BENCH_kernel\.json$\|^BENCH_planner\.json$' | sort -u); do
	if cmp -s "$tmp/parent-json/$f" "$tmp/change-json/$f"; then
		echo "identical $f"
	else
		echo "differs $f"
		status=1
	fi
done
exit $status
