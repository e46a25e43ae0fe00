#!/usr/bin/env bash
# Coordinator smoke: the end-to-end exercise of swsim's fleet mode that
# the coordinator-smoke CI job runs (and that works identically on a
# laptop). One coordinator, one sabotaged worker, two honest workers:
#
#   1. start `swsim -serve` with a short lease TTL;
#   2. submit a λ sweep through `swsim -sweep -coordinator`;
#   3. let a victim worker lease a point, stall past the TTL, and die by
#      SIGKILL — the impolite death lease expiry exists for;
#   4. drain the queue with two `exit=drain` workers, asserting the
#      victim's point was reassigned (statusz expired >= 1);
#   5. submit the identical plan again with no workers alive: it must be
#      served entirely from the digest-keyed result cache (it counts as
#      one more plan; the points, queued and results_accepted counters
#      are frozen) and the CSV must be byte-identical;
#   6. SIGTERM the coordinator, then prove its journal is a standard
#      sweep journal by rendering the same grid from it with plain
#      `swsim -checkpoint`, and diff everything against a
#      single-process run.
#
# Needs: go, curl, jq. Usage: scripts/coordinator_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18080}"
ADDR="127.0.0.1:$PORT"
URL="http://$ADDR"
GRID=(-q -k 4 -n 2 -warmup 200 -measure 2000 -sweep 0.002:0.008:0.002)
DIR="$(mktemp -d)"
SW="$DIR/swsim"

cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

die() { echo "coordinator smoke: FAIL: $*" >&2; curl -sf "$URL/statusz" >&2 || true; exit 1; }
field() { curl -sf "$URL/statusz" | jq -r ".$1"; }

go build -o "$SW" ./cmd/swsim

echo "# 1. coordinator (lease TTL 2s so the victim's point re-queues fast)"
"$SW" -serve "addr=$ADDR,checkpoint=$DIR/coord.jsonl,lease=2s" &
COORD=$!
for _ in $(seq 50); do
  curl -sf "$URL/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "$URL/healthz" >/dev/null || die "coordinator never came up on $URL"

echo "# 2. submit the sweep (blocks polling the result cache until the fleet finishes)"
"$SW" "${GRID[@]}" -coordinator "$URL" > "$DIR/fleet.csv" &
SUBMIT=$!

echo "# 3. victim worker: leases one point, stalls past the TTL, dies by SIGKILL"
"$SW" -worker "url=$URL,name=victim,stall=60s" &
VICTIM=$!
for _ in $(seq 100); do
  [ "$(field leased)" -ge 1 ] 2>/dev/null && break
  sleep 0.2
done
[ "$(field leased)" -ge 1 ] || die "victim never leased a point"
kill -9 "$VICTIM"
echo "#    victim (pid $VICTIM) SIGKILLed while holding a lease"

echo "# 4. two honest workers drain the queue, including the victim's re-queued point"
"$SW" -worker "url=$URL,name=w1,exit=drain" &
W1=$!
"$SW" -worker "url=$URL,name=w2,exit=drain" &
W2=$!
wait "$SUBMIT" || die "fleet-backed sweep failed"
wait "$W1" || die "worker w1 failed"
wait "$W2" || die "worker w2 failed"
[ "$(field expired)" -ge 1 ] || die "victim's death never tripped a lease expiry"
[ "$(field done)" -eq 4 ] || die "want 4 completed points, got $(field done)"

echo "# 5. identical plan again, no workers alive: must be pure cache"
before="$(curl -sf "$URL/statusz" | jq -c '[.plans, .points, .queued, .results_accepted]')"
"$SW" "${GRID[@]}" -coordinator "$URL" > "$DIR/fleet2.csv" || die "cached re-submission failed"
after="$(curl -sf "$URL/statusz" | jq -c '[.plans, .points, .queued, .results_accepted]')"
[ "$after" = "$(jq -c '.[0] += 1' <<<"$before")" ] \
  || die "repeat plan must count as one more plan and move nothing else: [plans,points,queued,results_accepted] $before -> $after"
diff "$DIR/fleet.csv" "$DIR/fleet2.csv" || die "cached rows diverge from fleet rows"

echo "# 6. graceful shutdown; the journal renders with plain swsim -checkpoint"
kill -TERM "$COORD"
wait "$COORD" || die "coordinator exited non-zero on SIGTERM"
"$SW" "${GRID[@]}" -checkpoint "$DIR/coord.jsonl" > "$DIR/from-journal.csv"
"$SW" "${GRID[@]}" > "$DIR/single.csv"
diff "$DIR/from-journal.csv" "$DIR/single.csv" || die "journal render diverges from single-process run"
diff "$DIR/fleet.csv" "$DIR/single.csv" || die "fleet rows diverge from single-process run"

echo "coordinator smoke: OK"
