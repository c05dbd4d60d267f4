#!/bin/sh
# cover.sh [BASE] [BLOCKS] — the functions no product entry point runs (make
# cover-product), or with BLOCKS non-empty the statements it leaves unrun
# inside the functions it does run (make cover-product BLOCKS=1).
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
# line, and at the end the functions at 0 % per package and in all. With
# BLOCKS it prints instead, for every function that ran but not
# whole, a `file:line: name pct N unreached statements` line followed by one
# `  start-end: k stmts` line per block with a count of 0 (lines of the file,
# a block of a closure under the function that encloses it), sorted by file
# and line, and at the end the unreached statements per package and in all.
# An entry point that exits non-zero stops the script with its output.
set -eu
base=${1:-}
blocks=${2:-}

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
go tool cover -func="$tmp/cover.txt" >"$tmp/func.txt"
if [ -z "$blocks" ]; then
	awk '$NF == "0.0%" { print $1, $2, $3 }' "$tmp/func.txt" | sort -t: -k1,1 -k2,2n
	awk '$NF == "0.0%" { pkg = $1; sub(/\/[^\/]*$/, "", pkg); n[pkg]++; all++ }
	END {
		print ""
		for (p in n) printf "%s: %d functions at 0 %%\n", p, n[p] | "sort"
		close("sort")
		printf "total: %d functions at 0 %%\n", all
	}' "$tmp/func.txt"
	exit 0
fi

# Each block of the profile (file:l0.c0,l1.c1 statements count; a block
# listed twice keeps its larger count) goes to the function of its file that
# starts last at or before it; a function at 0.0 % or 100.0 % has no line.
awk -v OFS='\t' '
FNR == NR {
	if ($1 == "total:") next
	split($1, a, ":")
	n = ++nfn[a[1]]
	fline[a[1], n] = a[2] + 0; fname[a[1], n] = $2; fpct[a[1], n] = $3
	next
}
FNR == 1 { next }
{
	if (!($1 in count) || $3 > count[$1]) count[$1] = $3
	stmts[$1] = $2
}
END {
	for (b in count) {
		if (count[b] > 0 || stmts[b] == 0) continue
		split(b, a, ":"); split(a[2], r, ","); split(r[1], s, "."); split(r[2], e, ".")
		f = a[1]; best = 0
		for (i = 1; i <= nfn[f]; i++)
			if (fline[f, i] <= s[1] && (best == 0 || fline[f, i] > fline[f, best])) best = i
		if (best == 0 || fpct[f, best] == "0.0%") continue
		print f, fline[f, best], fname[f, best], fpct[f, best], s[1] + 0, e[1] + 0, stmts[b]
	}
}' "$tmp/func.txt" "$tmp/cover.txt" | sort -t "$(printf '\t')" -k1,1 -k2,2n -k5,5n -k6,6n | awk -F '\t' '
function flush() {
	if (fn == "") return
	printf "%s:%d: %s %s %d unreached statements\n%s", file, line, fn, pct, total, body
	body = ""; total = 0
}
$1 != file || $2 != line {
	flush()
	file = $1; line = $2; fn = $3; pct = $4
}
{
	body = body sprintf("  %d-%d: %d stmts\n", $5, $6, $7)
	total += $7
	pkg = $1; sub(/\/[^\/]*$/, "", pkg)
	bypkg[pkg] += $7; all += $7
}
END {
	flush()
	print ""
	for (p in bypkg) printf "%s: %d unreached statements in reached functions\n", p, bypkg[p] | "sort"
	close("sort")
	printf "total: %d unreached statements in reached functions\n", all
}'
