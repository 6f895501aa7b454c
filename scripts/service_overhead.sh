#!/usr/bin/env bash
# Overhead gate for the bbsmined observability plane, measured end to end:
# two daemons serve the same index — one bare, one with the full plane
# armed at production settings (1-in-997 trace sampling, a 10 ms slow-query
# threshold, the flight recorder on) — and paired fixed-rate bbsbench runs
# compare COUNT p50 between them.
#
# Loopback p50 drifts a few percent between runs, so a single comparison
# cannot resolve a 2% bound. Each attempt therefore runs PAIRS paired
# benches (order alternated within each pair so warm-up bias cancels) and
# takes the median of the per-pair p50 ratios; a failing attempt is
# re-measured, because a real regression fails every attempt and noise
# does not repeat. bench/micro_service is the in-process version of this
# same comparison — faster, quieter, and the one CI gates merges on.
#
# Usage: scripts/service_overhead.sh [BUILD_DIR] [LIMIT_PCT]
#   (defaults: build, 2.0)

set -euo pipefail

BUILD_DIR="${1:-build}"
LIMIT_PCT="${2:-2.0}"
PAIRS="${PAIRS:-5}"
ATTEMPTS="${ATTEMPTS:-3}"
RATE="${RATE:-1200}"
DURATION_S="${DURATION_S:-3}"

BBSMINE="$BUILD_DIR/tools/bbsmine"
BBSMINED="$BUILD_DIR/tools/bbsmined"
BBSBENCH="$BUILD_DIR/tools/bbsbench"
WORK="$(mktemp -d)"
# start_daemon runs inside $(...), a subshell, so it records each daemon's
# pid in this file rather than in a shell variable the EXIT trap could read.
PID_FILE="$WORK/daemons.pid"

cleanup() {
  if [[ -f "$PID_FILE" ]]; then
    while read -r pid; do
      kill -KILL "$pid" 2>/dev/null || true
    done < "$PID_FILE"
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== generating dataset and segmented index"
"$BBSMINE" gen --out "$WORK/bench.db" --txns 3000 --items 200 --t 8 --i 4 \
  --patterns 50 --seed 11 >/dev/null
"$BBSMINE" build --db "$WORK/bench.db" --out "$WORK/bench.seg" \
  --bits 800 --hashes 3 --segment-capacity 512 >/dev/null

start_daemon() {  # $1 = log file, $2... = extra flags
  local log=$1; shift
  "$BBSMINED" --index "$WORK/bench.seg" --db "$WORK/bench.db" --port 0 \
    "$@" > "$log" 2>&1 &
  local pid=$!
  echo "$pid" >> "$PID_FILE"
  local port=""
  for _ in $(seq 1 50); do
    port=$(sed -n 's/^bbsmined listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    [[ -n "$port" ]] && break
    kill -0 "$pid" || { cat "$log" >&2; exit 1; }
    sleep 0.2
  done
  [[ -n "$port" ]] || { echo "daemon never reported its port" >&2; exit 1; }
  echo "$port"
}

echo "== starting bare and plane-armed daemons"
PORT_OFF=$(start_daemon "$WORK/off.log")
PORT_ON=$(start_daemon "$WORK/on.log" \
  --trace-out "$WORK/on-trace.json" --trace-sample 997 \
  --slow-log "$WORK/on-slow.jsonl" --slow-query-us 10000 \
  --flight-recorder-size 64)
echo "   bare on port $PORT_OFF, armed on port $PORT_ON"

count_p50() {  # $1 = port, $2 = out json, $3 = seed
  "$BBSBENCH" --port "$1" --seed "$3" --rate "$RATE" \
    --duration-s "$DURATION_S" --connections 16 --items 200 --query-len 2 \
    --mix-ping 0 --mix-count 100 --mix-insert 0 --mix-mine 0 --mix-stats 0 \
    --out "$2" >/dev/null
  python3 -c "import json,sys; r=json.load(open(sys.argv[1])); \
assert r['totals']['ok'] == r['totals']['sent'], r['totals']; \
print(r['verbs']['COUNT']['latency_us']['p50'])" "$2"
}

attempt=0
overhead=""
while (( attempt < ATTEMPTS )); do
  attempt=$((attempt + 1))
  ratios=()
  for pair in $(seq 1 "$PAIRS"); do
    seed=$((100 + attempt * 10 + pair))
    if (( pair % 2 == 1 )); then
      off_p50=$(count_p50 "$PORT_OFF" "$WORK/off.$attempt.$pair.json" "$seed")
      on_p50=$(count_p50 "$PORT_ON" "$WORK/on.$attempt.$pair.json" "$seed")
    else
      on_p50=$(count_p50 "$PORT_ON" "$WORK/on.$attempt.$pair.json" "$seed")
      off_p50=$(count_p50 "$PORT_OFF" "$WORK/off.$attempt.$pair.json" "$seed")
    fi
    ratios+=("$(python3 -c "print($on_p50 / $off_p50)")")
    echo "   attempt $attempt pair $pair: off p50 ${off_p50}us, on p50 ${on_p50}us"
  done
  overhead=$(python3 -c "
import statistics, sys
ratios = [float(r) for r in sys.argv[1:]]
print(f'{(statistics.median(ratios) - 1.0) * 100.0:.2f}')" "${ratios[@]}")
  echo "   attempt $attempt/$ATTEMPTS: median COUNT p50 overhead ${overhead}% (limit ${LIMIT_PCT}%)"
  if python3 -c "import sys; sys.exit(0 if $overhead < $LIMIT_PCT else 1)"; then
    echo "service overhead gate PASSED: ${overhead}% < ${LIMIT_PCT}%"
    exit 0
  fi
done

echo "service overhead gate FAILED: ${overhead}% >= ${LIMIT_PCT}%" >&2
exit 1
