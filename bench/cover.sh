#!/bin/sh
# cover.sh [BASE] — the functions no product entry point runs (make
# cover-product).
#
# Builds every entry point with -cover, from the working tree or, when BASE
# is given, from an export of that commit: `go build -cover` over ./cmd/...,
# ./benchmark and ./examples/... (plain -cover instruments the whole module;
# -coverpkg=cloudrepl/internal/... wrote no counter files with go1.24). Then
# runs each entry point with one GOCOVERDIR that every run adds to:
#
#   cloudrepl-bench -all -short -q -par 1 -json DIR
#   cloudrepl-bench -determinism -short -q -par 1
#   cloudrepl-bench -trace DIR/trace.json -q
#   cloudrepl-trace DIR/trace.json, and with -check
#   cloudrepl-lint ./...
#   cloudstone
#   benchmark -short -out DIR/bm
#   the nine examples
#
# and prints, from `go tool covdata textfmt` and `go tool cover -func`, every
# function at 0.0 %, one `file:line: name 0.0%` line each, sorted by file and
# line. An entry point that exits non-zero stops the script with its output.
set -eu
base=${1:-}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/cover-product.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
src=$root
if [ -n "$base" ]; then
	src=$tmp/src
	mkdir "$src"
	git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base^{commit}")" | tar -x -C "$src"
fi
mkdir "$tmp/bin" "$tmp/cov" "$tmp/out"
cd "$src"
go build -cover -trimpath -buildvcs=false -o "$tmp/bin/" ./cmd/... ./benchmark ./examples/...

GOCOVERDIR=$tmp/cov
# A -trimpath binary does not know GOROOT, and cloudrepl-lint type-checks
# against the standard library's source.
GOROOT=$(go env GOROOT)
export GOCOVERDIR GOROOT
run() {
	"$@" >"$tmp/log" 2>&1 || {
		cat "$tmp/log" >&2
		echo "cover.sh: $* exited non-zero" >&2
		exit 1
	}
}
run "$tmp/bin/cloudrepl-bench" -all -short -q -par 1 -json "$tmp/out"
run "$tmp/bin/cloudrepl-bench" -determinism -short -q -par 1
run "$tmp/bin/cloudrepl-bench" -trace "$tmp/out/trace.json" -q
run "$tmp/bin/cloudrepl-trace" "$tmp/out/trace.json"
run "$tmp/bin/cloudrepl-trace" -check "$tmp/out/trace.json"
run "$tmp/bin/cloudrepl-lint" ./...
run "$tmp/bin/cloudstone"
run "$tmp/bin/benchmark" -short -out "$tmp/out/bm"
for ex in quickstart socialcalendar georeplication failover instancelottery \
	chaos elasticity pipeline sharding; do
	run "$tmp/bin/$ex"
done
unset GOCOVERDIR

go tool covdata textfmt -i="$tmp/cov" -o "$tmp/cover.txt"
go tool cover -func="$tmp/cover.txt" | awk '$NF == "0.0%" { print $1, $2, $3 }' | sort -t: -k1,1 -k2,2n
