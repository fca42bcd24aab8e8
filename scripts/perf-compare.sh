#!/usr/bin/env bash
# Compares this checkout with a base revision on the wall-clock benchmark:
#
#   make perf-compare BASE=<rev>      (= bash scripts/perf-compare.sh <rev>)
#
# Clones this repository into .bench_build/perf-compare-base (a shared
# clone: it borrows this checkout's objects), checks BASE out there
# detached, removes the clone on exit, and in between runs ten
# interleaved pairs per workload (odd pairs run the base first, even
# pairs the change first; pair N uses seed N on both sides), each one
#
#   bash benchmark/run.sh --workload W --seed N --seconds 20 --trace 0
#
# and prints, per end-to-end metric @ workload, the base median, the
# change median, the base's inter-quartile spread, wins/pairs (ties
# count for neither side) and a verdict against the bound BENCHMARK.json
# gives the metric:
#
#   within-bound  the change's median is no worse than the base's by
#                 more than the bound
#   worse         it is
#   unresolved    the base's own spread is wider than the bound and the
#                 change's runs do not all beat the base's, so the pairs
#                 cannot tell
#
# Workloads, metrics, directions and bounds are read from BENCHMARK.json.
# Exits non-zero if any run reports correct:false, any metric is worse,
# or a larger share of operations fails than at the base.
set -euo pipefail
base="${1:?usage: scripts/perf-compare.sh <base-rev>}"
pairs=10
seconds=20

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
tree=".bench_build/perf-compare-base"
rows=".bench_build/perf-compare.rows"

rm -rf "$tree"
git clone --quiet --shared "$root" "$tree"
git -C "$tree" checkout --quiet --detach "$(git rev-parse --verify "$base^{commit}")"
trap 'rm -rf "$tree"' EXIT
: >"$rows"

workloads="$(awk '/"workloads"/ {on=1} /"end_to_end"/ {on=0}
	on && /"name"/ {gsub(/[",]/, ""); print $2}' BENCHMARK.json)"

# run_side SIDE DIR WORKLOAD PAIR appends the run's result line, one
# value per row, to $rows.
run_side() {
	local line
	line="$(bash "$2/benchmark/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)" || true
	case "$line" in
	'{"correct":true,'*) ;;
	*) echo "perf-compare: $1 $3 seed $4 did not report correct:true: $line" >&2 ;;
	esac
	printf '%s\n' "$line" | awk -v side="$1" -v w="$3" -v pair="$4" '{
		correct = ($0 ~ /^\{"correct":true,/)
		print w, pair, side, "correct", correct
		s = $0
		while (match(s, /"[a-z0-9_]+":(\{"value":)?[-0-9.e+]+/)) {
			kv = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
			name = kv; sub(/^"/, "", name); sub(/".*/, "", name)
			sub(/.*:/, "", kv)
			print w, pair, side, name, kv
		}
	}' >>"$rows"
}

for w in $workloads; do
	for pair in $(seq 1 "$pairs"); do
		echo "perf-compare: $w pair $pair/$pairs" >&2
		if [ $((pair % 2)) -eq 1 ]; then
			run_side base "$tree" "$w" "$pair"
			run_side change "$root" "$w" "$pair"
		else
			run_side change "$root" "$w" "$pair"
			run_side base "$tree" "$w" "$pair"
		fi
	done
done

awk -v base="$base" '
function quantile(a, n, p,    pos, lo) {
	pos = (n - 1) * p; lo = int(pos)
	if (lo + 1 >= n) return a[n]
	return a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
}
# sorted copies side s, workload w, metric m into out[1..n], ascending.
function sorted(s, w, m, out,    n, i, j, t) {
	n = 0
	for (i = 1; i <= npairs[w]; i++) if ((s, w, i, m) in val) out[++n] = val[s, w, i, m]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
	return n
}
FNR == NR {
	if (/"end_to_end"/) on = 1
	if (/"per_layer"/) on = 0
	if (on && /"name"/) { gsub(/[",]/, ""); name = $2; metrics[++nm] = name }
	if (on && /"better"/) { gsub(/[",]/, ""); better[name] = $2 }
	if (on && /"bound"/) { gsub(/,/, ""); bound[name] = $2 }
	next
}
{
	w = $1; pair = $2; side = $3
	if (!(w in npairs)) order[++nw] = w
	if (pair > npairs[w]) npairs[w] = pair
	if ($4 == "correct") { if (!$5) incorrect++ } else if ($4 == "attempted" || $4 == "failed") ops[side, w, $4] += $5
	else val[side, w, pair, $4] = $5
}
END {
	printf "base %s against this checkout\n\n", base
	printf "%-30s %12s %12s %12s %7s  %s\n", "metric @ workload", "base median", "change", "base IQR", "wins", "verdict"
	for (k = 1; k <= nw; k++) {
		w = order[k]
		for (i = 1; i <= nm; i++) {
			m = metrics[i]
			nb = sorted("base", w, m, b); nc = sorted("change", w, m, c)
			if (nb == 0 || nc == 0) { printf "%-30s no runs\n", m " @ " w; bad++; continue }
			bm = quantile(b, nb, 0.5); cm = quantile(c, nc, 0.5)
			iqr = quantile(b, nb, 0.75) - quantile(b, nb, 0.25)
			sign = (better[m] == "higher") ? -1 : 1
			wins = 0; n = 0
			for (p = 1; p <= npairs[w]; p++) if (("base", w, p, m) in val && ("change", w, p, m) in val) {
				n++
				if (sign * (val["change", w, p, m] - val["base", w, p, m]) < 0) wins++
			}
			clear = (sign > 0) ? (c[nc] < b[1]) : (c[1] > b[nb])
			if (sign * (cm - bm) > bound[m] * bm) { verdict = "worse"; bad++ }
			else if (iqr > bound[m] * bm && !clear) verdict = "unresolved"
			else verdict = "within-bound"
			printf "%-30s %12.6g %12.6g %12.6g %4d/%-2d  %s\n", m " @ " w, bm, cm, iqr, wins, n, verdict
		}
		bf = ops["base", w, "failed"]; ba = ops["base", w, "attempted"]
		cf = ops["change", w, "failed"]; ca = ops["change", w, "attempted"]
		more = (cf * ba > bf * ca)
		if (more) bad++
		printf "%-30s base %d of %d, change %d of %d%s\n", "failed ops @ " w, bf, ba, cf, ca, more ? "  larger share fails" : ""
	}
	if (incorrect) printf "\n%d run(s) did not report correct:true\n", incorrect
	exit (incorrect || bad) ? 1 : 0
}' BENCHMARK.json "$rows"
