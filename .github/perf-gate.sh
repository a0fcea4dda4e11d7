#!/usr/bin/env bash
# Paired performance gate: runs the campaign benchmark (ozzbench/) on a
# parent commit and on this checkout, seed by seed, and fails when this
# checkout is slower, less correct or finds less than the parent.
#
#   bash .github/perf-gate.sh <parent-rev>
#
# The parent tree is extracted with `git archive` into a temporary
# directory, so both sides build from their own sources and keep their
# own .bench_build/ (build cache and determinism records). For each
# workload and seed the two sides run back to back, alternating which
# goes first. The gate fails on any of:
#   - a run whose last line lacks "correct":true;
#   - a seed where this checkout's `failed` exceeds the parent's;
#   - a workload whose median tests_per_s ratio (this checkout / parent)
#     is below 1 - BOUND.
# The seed set, run length and bound are fixed here, not options, so
# every run of the gate measures the same campaigns against the same
# bound. docs/PERFORMANCE.md gives the A/A runs the bound comes from.
set -euo pipefail

WORKLOADS=(steady hunt)
SEEDS=(1 2 3 4 5)
RUN_SECONDS=5
BOUND=0.20

if [ $# -ne 1 ]; then
	echo "usage: bash .github/perf-gate.sh <parent-rev>" >&2
	exit 2
fi
head_dir=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'chmod -R u+w "$work" 2>/dev/null; rm -rf "$work"' EXIT
parent_dir="$work/parent"
mkdir -p "$parent_dir" "$work/logs"
git -C "$head_dir" archive "$1" | tar -x -C "$parent_dir"
echo "perf gate: parent $(git -C "$head_dir" rev-parse --short "$1") vs $head_dir"
echo "workloads ${WORKLOADS[*]}, seeds ${SEEDS[*]}, ${RUN_SECONDS}s runs, bound $BOUND"

fail=0

# bench SIDE WORKLOAD SEED runs one benchmark and sets tps and failed
# from its last line.
bench() {
	local side=$1 w=$2 s=$3 dir last log
	dir=$head_dir
	if [ "$side" = parent ]; then dir=$parent_dir; fi
	log="$work/logs/$side-$w-$s.log"
	last=$(cd "$dir" && bash ozzbench/run.sh --workload "$w" --seed "$s" \
		--seconds "$RUN_SECONDS" --trace 0 2>"$log" | tail -1) || true
	if ! jq -e '.correct == true' <<<"$last" >/dev/null 2>&1; then
		echo "FAIL: $side $w seed $s: last line lacks \"correct\":true: $last" >&2
		tail -20 "$log" >&2
		fail=1
		tps=0 failed=-1
		return
	fi
	tps=$(jq -r '.metrics.tests_per_s.value' <<<"$last")
	failed=$(jq -r '.failed' <<<"$last")
}

pair=0
printf '%-8s %4s %12s %12s %7s %14s\n' workload seed parent head ratio failed
for w in "${WORKLOADS[@]}"; do
	: >"$work/ratios-$w"
	for s in "${SEEDS[@]}"; do
		if [ $((pair % 2)) -eq 0 ]; then order=(parent head); else order=(head parent); fi
		pair=$((pair + 1))
		for side in "${order[@]}"; do
			bench "$side" "$w" "$s"
			eval "${side}_tps=\$tps ${side}_failed=\$failed"
		done
		ratio=$(awk -v h="$head_tps" -v p="$parent_tps" 'BEGIN { printf "%.4f", (p > 0) ? h / p : 0 }')
		echo "$ratio" >>"$work/ratios-$w"
		printf '%-8s %4s %12.1f %12.1f %7s %14s\n' "$w" "$s" "$parent_tps" "$head_tps" "$ratio" \
			"$parent_failed -> $head_failed"
		if [ "$head_failed" -gt "$parent_failed" ]; then
			echo "FAIL: $w seed $s: failed rose from $parent_failed to $head_failed" >&2
			fail=1
		fi
	done
done

for w in "${WORKLOADS[@]}"; do
	median=$(sort -g "$work/ratios-$w" | awk '{ r[NR] = $1 } END { print (NR % 2) ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2 }')
	if awk -v m="$median" -v b="$BOUND" 'BEGIN { exit !(m < 1 - b) }'; then
		echo "FAIL: $w median tests_per_s ratio $median is below 1 - $BOUND" >&2
		fail=1
	else
		echo "$w: median tests_per_s ratio $median (floor $(awk -v b="$BOUND" 'BEGIN { print 1 - b }'))"
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "perf gate: FAIL" >&2
	exit 1
fi
echo "perf gate: OK"
