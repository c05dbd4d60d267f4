# summary.awk — the summary of bench/pairs.sh's paired readings, and the
# host-speed gate's verdict on them.
#
# Input is `pair side metric value` lines (side is parent or change); other
# lines are skipped, except pairs.sh's closing `N pairs, BASE -> working tree`,
# which names the parent and says every pair was measured. Per metric it gives
# both sides' medians, the median of the per-pair ratios change/parent, and in
# how many pairs the change read lower, higher and equal; a gated metric adds
# the ratio of the two sides' best readings, its bound and ok or FAIL. Run as
#   awk -f bench/summary.awk READINGS
# it prints that as a table; given a row label,
#   awk -v label="PR 38 @ 54f7c1b+" -f bench/summary.awk READINGS
# it prints it as one bench/history.jsonl row instead, and no row at all when
# the closing line is missing (a bench failed part way). Either way it exits 1
# when a gated metric fails.

function median(list, a, k, m, j, x) {
	m = split(list, a, " ")
	if (m == 0) return ""
	for (k = 2; k <= m; k++) {
		x = a[k]
		for (j = k - 1; j >= 1 && a[j] + 0 > x + 0; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
	return m % 2 ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
}

# The gate, whole: what is held to the parent, and how far the ratio of the
# two sides' best readings change/parent may move. A best reading is the
# lowest ns/event or allocs, the highest ops/s, over all pairs: a shared
# host's speed shifts by up to 2.5× between runs and within one, always
# downward from what the code can do, and every wall-clock reading is already
# the fastest of many short windows timed with the collector off. Even so the
# best ratios of two identical builds reach 1.15 on ns/event and 0.78 on ops/s
# on a 2-vCPU box (results/pr38/), so kernel ns/event may rise 20 % and a
# planner shape's ops/s fall 20 %, the old absolute gate's bounds: a gross
# slowdown fails, a 10 % one is not told from noise, and an unchanged tree
# still fails about one run in ten.
# Allocation counts repeat exactly from run to run, so their 3 % absorbs only
# amortised growth of reused buffers; a shape the parent reads at 0 allocs/op
# fails at 0.5 — a stray runtime object passes, a plan rebuilt or an object
# allocated per row does not.
function bound(name) {
	if (name ~ /^kernel\.(micro|cell)\.ns_per_event$/) return "<=1.20"
	if (name ~ /^kernel\.cell\.allocs_per_event$|^planner\.[a-z0-9_]*\.allocs_per_op$/) return "<=1.03"
	if (name ~ /^planner\.[a-z0-9_]*\.ops_per_sec$/) return ">=0.80"
	return ""
}

# num formats a median, none standing in for a side with no reading.
function num(x, none) { return x == "" ? none : sprintf("%.6g", x) }

/^[0-9]+ pairs, / { base = $3; next }
NF != 4 || $2 != "parent" && $2 != "change" { next }
{
	v[$1, $2, $3] = $4
	if (!($3 in seen)) { seen[$3] = 1; names[++nm] = $3 }
	if (!($1 in pairs)) { pairs[$1] = 1; np++ }
}

END {
	if (np == 0) {
		print "summary.awk: no readings" > "/dev/stderr"
		exit 1
	}
	if (label != "" && base == "") {
		print "summary.awk: no closing `N pairs, BASE ->` line: the readings are incomplete, no row written" > "/dev/stderr"
		exit 1
	}
	if (label == "")
		printf "%-40s %12s %12s %8s %16s %8s %7s\n", "metric", "parent", "change", "ratio", "lower/higher/eq", "best", "gate"
	row = ""
	for (k = 1; k <= nm; k++) {
		name = names[k]; pl = ""; cl = ""; rl = ""; lo = 0; hi = 0; eq = 0; na = 0; nb = 0
		g = bound(name); low = substr(g, 1, 1) == "<"
		for (p in pairs) {
			ha = (p, "parent", name) in v; hb = (p, "change", name) in v
			a = v[p, "parent", name]; b = v[p, "change", name]
			if (ha) { pl = pl " " a; if (!na++ || (low ? a + 0 < bp : a + 0 > bp)) bp = a + 0 }
			if (hb) { cl = cl " " b; if (!nb++ || (low ? b + 0 < bc : b + 0 > bc)) bc = b + 0 }
			if (!ha || !hb) continue
			if (a + 0 != 0) rl = rl " " b / a
			if (b + 0 < a + 0) lo++; else if (b + 0 > a + 0) hi++; else eq++
		}
		r = rl == "" ? "-" : sprintf("%.3f", median(rl))
		br = "-"; verdict = ""
		# A verdict needs a reading on both sides in every pair. A metric
		# only one side has is a shape added or removed on purpose; one with
		# a reading missing from some pairs is a bench that went wrong.
		if (g != "" && na == 0) verdict = "new"
		else if (g != "" && nb == 0) verdict = "removed"
		else if (g != "" && (na < np || nb < np)) {
			verdict = "FAIL"; failed = failed " " name " (readings missing)"; gated++
		} else if (g != "") {
			if (bp != 0) br = sprintf("%.3f", bc / bp)
			lim = substr(g, 3) + 0
			if (bp == 0) bad = name ~ /allocs/ && bc >= 0.5
			else bad = low ? bc / bp > lim : bc / bp < lim
			verdict = bad ? "FAIL" : "ok"
			if (bad) failed = failed " " name
			gated++
		}
		if (label == "")
			printf "%-40s %12s %12s %8s %16s %8s %7s %s\n", name, num(median(pl), "-"), num(median(cl), "-"), r, lo "/" hi "/" eq, br, g, verdict
		else
			row = row sprintf("%s\"%s\":{\"parent\":%s,\"change\":%s,\"ratio\":%s,\"lower\":%d,\"higher\":%d,\"equal\":%d%s}",
				k > 1 ? "," : "", name, num(median(pl), "null"), num(median(cl), "null"), r == "-" ? "null" : r, lo, hi, eq,
				g == "" ? "" : ",\"best_ratio\":" (br == "-" ? "null" : br) ",\"bound\":\"" g "\",\"gate\":\"" verdict "\"")
	}
	gate = failed != "" ? "FAILED:" failed : gated ? "passed: " gated " metrics within their bounds" : ""
	if (label != "")
		printf "{\"label\":\"%s\",\"base\":\"%s\",\"pairs\":%d,\"gate\":\"%s\",\"metrics\":{%s}}\n", label, base, np, gate, row
	else if (gate != "")
		print "gate " gate
	if (failed != "") exit 1
}
