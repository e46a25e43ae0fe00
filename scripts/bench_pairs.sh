#!/usr/bin/env bash
# Parent-versus-change comparison on the reference benchmark, the way
# BENCHMARK.json's contract judges a PR: the parent commit is extracted
# beside the working tree, and every workload runs N alternating pairs of
#
#   bash bench/run.sh -workload W -seed $i -seconds S -trace 0
#
# (pair i on seed i, so pair 1 is also checked against bench/golden.json;
# order swapped every pair, so drift of the machine cancels instead of
# landing on one side). It prints, per workload and end-to-end metric, the
# median of each side, how much worse the change is, how many pairs the
# change won (ties count for neither side) and the parent's interquartile
# distance. A row reads `gain` only by bench/README.md's rule — the change
# won at least nine tenths of the pairs and the medians differ, in the
# better direction, by more than the parent's interquartile distance —
# and a claim needs -n 10. The script exits 1 when a median is worse than
# the parent's by more than the metric's bound in BENCHMARK.json, when a
# run reports "correct":false, or when a larger share of operations failed
# on the change. S is BENCHMARK.json's run_seconds. Only same-session pairs
# mean anything: never compare against numbers from another machine or
# another day. -o keeps every run's result JSON (one line each, tagged
# side/workload/pair) in a file: the raw pairs belong there, a CHANGES.md
# entry quotes the table only.
#
# Needs: go, git, jq. Usage: scripts/bench_pairs.sh [-n pairs] [-o runs.jsonl] <parent-ref> [workload...]
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=5 # what CI's bench-harness job runs
OUT=""
USAGE="usage: $0 [-n pairs] [-o runs.jsonl] <parent-ref> [workload...]"
while getopts n:o: opt; do
  case "$opt" in
    n) PAIRS="$OPTARG" ;;
    o) OUT="$OPTARG" ;;
    *) echo "$USAGE" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "$0: -n wants a positive pair count, got '$PAIRS'" >&2; exit 2; }

[ $# -ge 1 ] || { echo "$USAGE" >&2; exit 2; }
REF="$1"; shift
SHA="$(git rev-parse --verify --quiet "$REF^{commit}")" || { echo "$0: unknown ref $REF" >&2; exit 2; }
SECS="$(jq .run_seconds BENCHMARK.json)"
if [ $# -gt 0 ]; then WORKLOADS=("$@"); else mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json); fi

DIR="$(mktemp -d)"
# The runs are copied out on any exit, so an out-of-bound verdict (exit 1)
# or an interrupted session still leaves what was measured.
trap '[ -z "$OUT" ] || [ ! -f "$DIR/runs.jsonl" ] || cp "$DIR/runs.jsonl" "$OUT"; rm -rf "$DIR"' EXIT
mkdir "$DIR/parent"
git archive "$SHA" | tar -x -C "$DIR/parent"

# one <side> <tree> <workload> <pair>: a run's last line is its result JSON;
# every run is also printed as it finishes, so a report can list them all.
one() {
  bash "$2/bench/run.sh" -workload "$3" -seed "$4" -seconds "$SECS" -trace 0 | tail -n 1 |
    jq -c --arg side "$1" --arg w "$3" --argjson pair "$4" '. + {side: $side, workload: $w, pair: $pair}' |
    tee -a "$DIR/runs.jsonl" |
    jq -r '"  \(.workload) pair \(.pair) \(.side): " + (.metrics | to_entries | map("\(.key)=\(.value.value)") | join(" ")) + (if .correct then "" else " INCORRECT" end)'
}

echo "parent ${SHA:0:10} vs working tree: $PAIRS pairs x ${SECS}s, workloads: ${WORKLOADS[*]}"
for w in "${WORKLOADS[@]}"; do
  for ((i = 1; i <= PAIRS; i++)); do
    if ((i % 2 == 1)); then one parent "$DIR/parent" "$w" "$i"; one change . "$w" "$i"
    else one change . "$w" "$i"; one parent "$DIR/parent" "$w" "$i"; fi
  done
done

jq -rs --slurpfile b BENCHMARK.json '
  # quantile by linear interpolation between order statistics
  def quantile($q): sort | (($q * (length - 1)) | floor) as $i | (($q * (length - 1)) - $i) as $f
    | if $i + 1 < length then .[$i] + $f * (.[$i + 1] - .[$i]) else .[$i] end;
  def median: quantile(0.5);
  def share: (map(.failed) | add) / (map(.attempted) | add);
  group_by(.workload)[] | . as $runs | $runs[0].workload as $w
  | ($runs | map(select(.side == "parent")) | sort_by(.pair)) as $p
  | ($runs | map(select(.side == "change")) | sort_by(.pair)) as $c
  | ($b[0].end_to_end[] | . as $m
     | (if $m.better == "higher" then 1 else -1 end) as $sign
     | ($p | map(.metrics[$m.name].value)) as $pv | ($c | map(.metrics[$m.name].value)) as $cv
     | ($pv | median) as $pm | ($cv | median) as $cm
     | (($pv | quantile(0.75)) - ($pv | quantile(0.25))) as $iqr
     | ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $sign > 0)] | length) as $won
     | (($pm - $cm) * $sign / $pm) as $worse
     | [$w, $m.name, $pm, $cm, ($worse * 1000 | round / 10 | tostring) + "%", ($m.bound * 100 | tostring) + "%",
        "\($won)/\($pv | length)", $iqr,
        (if $worse > $m.bound then "EXCEEDS BOUND"
         elif $won * 10 >= ($pv | length) * 9 and ($cm - $pm) * $sign > $iqr then "gain" else "ok" end)]),
    [$w, "failed_share", ($p | share), ($c | share), "", "", "", "",
     (if ($runs | all(.correct)) | not then "INCORRECT RUN" elif ($c | share) > ($p | share) then "MORE FAILURES" else "ok" end)]
  | @tsv' "$DIR/runs.jsonl" |
  awk -F'\t' 'BEGIN { printf "%-14s %-18s %-12s %-12s %-9s %-6s %-6s %-12s %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "won", "parent IQR", "verdict" }
    { iqr = $8 == "" ? "" : sprintf("%.6g", $8)
      printf "%-14s %-18s %-12.6g %-12.6g %-9s %-6s %-6s %-12s %s\n", $1, $2, $3, $4, $5, $6, $7, iqr, $9; if ($9 != "ok" && $9 != "gain") bad = 1 }
    END { exit bad }'
