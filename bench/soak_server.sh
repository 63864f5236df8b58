#!/usr/bin/env bash
# Soak test for `dabs_cli serve`: hammers a running server with curl for a
# fixed wall-clock window and reports sustained jobs/s, terminal-state mix,
# and HTTP error counts.  Non-gating — operator tooling, not CI.
#
# Usage: bench/soak_server.sh [BUILD_DIR] [SECONDS]
#   BUILD_DIR  build tree containing examples/dabs_cli (default: build)
#   SECONDS    soak window (default: 30)
set -u

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
duration="${2:-30}"
CLI="${build_dir}/examples/dabs_cli"
[ -x "$CLI" ] || { echo "error: $CLI not built" >&2; exit 1; }
command -v curl >/dev/null 2>&1 || { echo "error: curl not found" >&2; exit 1; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/dabs_soak.XXXXXX")
PORT=$(( 20000 + $$ % 20000 ))
BASE="http://127.0.0.1:$PORT/v1"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill -TERM "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

"$CLI" serve --port "$PORT" --jobs 2 --queue-limit 256 \
  2> "$WORK/server.err" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/server.err" >&2; exit 1; }
  sleep 0.05
done

echo "soaking $BASE for ${duration}s..." >&2
submitted=0
shed=0
errors=0
seed=0
end=$(( $(date +%s) + duration ))
while [ "$(date +%s)" -lt "$end" ]; do
  seed=$((seed + 1))
  body=$(printf '{"problem": "maxcut", "params": {"n": 32, "m": 120, "seed": %d}, "solver": "sa", "max_batches": 500, "seed": %d}' "$seed" "$seed")
  code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/jobs" -d "$body")
  case "$code" in
    202) submitted=$((submitted + 1)) ;;
    429) shed=$((shed + 1)); sleep 0.02 ;;  # back off while shed
    *)   errors=$((errors + 1)) ;;
  esac
done

# Let the queue drain, then read the final ledger from /v1/stats.
for _ in $(seq 1 600); do
  stats=$(curl -sf "$BASE/stats")
  case "$stats" in *'"outstanding":0'*) break ;; esac
  sleep 0.1
done
echo "$stats" > "$WORK/stats.json"

# Final scrape: the metrics ledger must agree with itself.  Sums are per
# metric family across every label set.
curl -sf "$BASE/metrics" > "$WORK/metrics.prom" \
  || { echo "FAIL: /v1/metrics scrape failed" >&2; exit 1; }
sum_metric() {
  awk -v name="$1" \
    '$0 !~ /^#/ && $1 ~ "^"name"($|\\{)" { s += $NF } END { printf "%.0f\n", s + 0 }' \
    "$WORK/metrics.prom"
}
m_requests=$(sum_metric dabs_http_requests_total)
m_submitted=$(sum_metric dabs_service_jobs_submitted_total)
m_terminal=$(sum_metric dabs_service_jobs_terminal_total)

echo "== soak result (${duration}s window)"
echo "submitted: $submitted  shed(429): $shed  transport-errors: $errors"
echo "sustained: $(( submitted / duration )) jobs/s accepted"
echo "final /v1/stats:"
sed 's/^/  /' "$WORK/stats.json"
echo "final /v1/metrics: http_requests=$m_requests" \
     "service_submitted=$m_submitted service_terminal=$m_terminal"
[ "$errors" -eq 0 ] || { echo "FAIL: transport errors during soak" >&2; exit 1; }
# Invariant 1: the HTTP layer saw at least one request per accepted job.
[ "$m_requests" -ge "$m_submitted" ] || {
  echo "FAIL: http requests ($m_requests) < jobs submitted ($m_submitted)" >&2
  exit 1
}
# Invariant 2: after the drain, every submitted job reached a terminal
# disposition — the counters must balance exactly.
[ "$m_submitted" -eq "$m_terminal" ] || {
  echo "FAIL: submitted ($m_submitted) != terminal sum ($m_terminal)" >&2
  exit 1
}
echo "PASS"
