#!/usr/bin/env bash
# Parent-versus-change comparison on the reference benchmark, the way
# BENCHMARK.json's contract judges a PR: the parent commit is extracted
# beside the working tree, and every workload runs PAIRS alternating
# pairs of
#
#   bash bench/run.sh -workload W -seed 1 -seconds S -trace 0
#
# (order swapped every pair, so drift of the machine cancels instead of
# landing on one side). It prints, per workload and end-to-end metric, the
# median of each side and how much worse the change is, and exits 1 when
# a median is worse than the parent's by more than the metric's bound in
# BENCHMARK.json, when a run reports "correct":false, or when a larger
# share of operations failed on the change. S is BENCHMARK.json's
# run_seconds. Only same-session pairs mean anything: never compare
# against numbers from another machine or another day.
#
# Needs: go, git, jq. Usage: scripts/bench_pairs.sh <parent-ref> [workload...]
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=5

[ $# -ge 1 ] || { echo "usage: $0 <parent-ref> [workload...]" >&2; exit 2; }
REF="$1"; shift
SHA="$(git rev-parse --verify --quiet "$REF^{commit}")" || { echo "$0: unknown ref $REF" >&2; exit 2; }
SECS="$(jq .run_seconds BENCHMARK.json)"
if [ $# -gt 0 ]; then WORKLOADS=("$@"); else mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json); fi

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
mkdir "$DIR/parent"
git archive "$SHA" | tar -x -C "$DIR/parent"

# one <side> <tree> <workload>: a run's last line is its result JSON.
one() {
  bash "$2/bench/run.sh" -workload "$3" -seed 1 -seconds "$SECS" -trace 0 | tail -n 1 |
    jq -c --arg side "$1" --arg w "$3" '. + {side: $side, workload: $w}' >> "$DIR/runs.jsonl"
}

echo "parent ${SHA:0:10} vs working tree: $PAIRS pairs x ${SECS}s, workloads: ${WORKLOADS[*]}"
for w in "${WORKLOADS[@]}"; do
  for ((i = 0; i < PAIRS; i++)); do
    if ((i % 2 == 0)); then one parent "$DIR/parent" "$w"; one change . "$w"
    else one change . "$w"; one parent "$DIR/parent" "$w"; fi
  done
done

jq -rs --slurpfile b BENCHMARK.json '
  def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  def share: (map(.failed) | add) / (map(.attempted) | add);
  group_by(.workload)[] | . as $runs | $runs[0].workload as $w
  | ($runs | map(select(.side == "parent"))) as $p | ($runs | map(select(.side == "change"))) as $c
  | ($b[0].end_to_end[] | . as $m
     | ($p | map(.metrics[$m.name].value) | median) as $pm
     | ($c | map(.metrics[$m.name].value) | median) as $cm
     | (if $m.better == "higher" then ($pm - $cm) / $pm else ($cm - $pm) / $pm end) as $worse
     | [$w, $m.name, $pm, $cm, ($worse * 1000 | round / 10 | tostring) + "%", ($m.bound * 100 | tostring) + "%",
        (if $worse > $m.bound then "EXCEEDS BOUND" else "ok" end)]),
    [$w, "failed_share", ($p | share), ($c | share), "", "",
     (if ($runs | all(.correct)) | not then "INCORRECT RUN" elif ($c | share) > ($p | share) then "MORE FAILURES" else "ok" end)]
  | @tsv' "$DIR/runs.jsonl" |
  awk -F'\t' 'BEGIN { printf "%-14s %-18s %-12s %-12s %-9s %-6s %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "verdict" }
    { printf "%-14s %-18s %-12.6g %-12.6g %-9s %-6s %s\n", $1, $2, $3, $4, $5, $6, $7; if ($7 != "ok") bad = 1 }
    END { exit bad }'
