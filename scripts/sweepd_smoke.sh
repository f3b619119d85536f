#!/usr/bin/env bash
# End-to-end smoke test for the sweep service: boot a real sweepd
# server, drive it over plain HTTP (curl only — no Go test harness in
# the loop), and require every served CSV to be byte-identical to an
# in-process Sweep of the same matrix.
#
# Phases:
#   1. auth      — without the bearer token, submit and cancel 401;
#                  reads and health stay open.
#   2. cold/warm — submit the same matrix twice; cold simulates, warm
#                  is all cache hits, both byte-identical to -local.
#   3. crash     — kill -9 the daemon mid-job, restart it on the same
#                  -data-dir, and require the job to resume from the
#                  journal (no journaled replica is lost), finish on
#                  the restarted daemon's own pool, and still serve
#                  byte-identical CSV.
#   4. drain     — SIGTERM exits 0 after a graceful drain.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
server_pid=""
token="smoke-secret-token"
cleanup() {
  if [ -n "$server_pid" ]; then kill -9 "$server_pid" 2>/dev/null || true; fi
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sweepd" ./cmd/sweepd

# A small figure-4-style matrix: the three protocol families over one
# workload, two seeds each.
cat > "$workdir/matrix.json" <<'EOF'
{
  "base": {
    "cores": 8,
    "workload": "micro",
    "ops_per_core": 60,
    "warmup_ops": 40,
    "seed": 1,
    "skip_checks": true
  },
  "protocols": [
    {"protocol": "Directory"},
    {"protocol": "TokenB"},
    {"protocol": "PATCH", "variant": "PATCH-All"}
  ],
  "seeds": 2
}
EOF
printf '{"matrix":%s}' "$(cat "$workdir/matrix.json")" > "$workdir/jobspec.json"

# The crash-phase matrix is bigger (hundreds of ms per replica, so the
# kill lands mid-job) and uses a different seed, so nothing comes out
# of the cold/warm phases' cache.
cat > "$workdir/crash-matrix.json" <<'EOF'
{
  "base": {
    "cores": 8,
    "workload": "micro",
    "ops_per_core": 20000,
    "warmup_ops": 2000,
    "seed": 7,
    "skip_checks": true
  },
  "protocols": [
    {"protocol": "Directory"},
    {"protocol": "TokenB"},
    {"protocol": "PATCH", "variant": "PATCH-All"}
  ],
  "seeds": 2
}
EOF
# One worker runs its replicas one after another, so on a host with
# enough cores to run all six at once the job still spends seconds
# between its first and last completion, where the kill must land.
printf '{"matrix":%s,"workers":1}' "$(cat "$workdir/crash-matrix.json")" > "$workdir/crash-jobspec.json"

addr=127.0.0.1:18080
base="http://$addr"
auth=(-H "Authorization: Bearer $token")
datadir="$workdir/data"

start_server() {
  "$workdir/sweepd" -listen "$addr" -data-dir "$datadir" \
    -cache-max-bytes $((64 * 1024 * 1024)) -token "$token" &
  server_pid=$!
  for _ in $(seq 1 100); do
    curl -fsS "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fsS "$base/healthz" >/dev/null
}
start_server

# References: the same matrices through an in-process sweep.
"$workdir/sweepd" -local -matrix "$workdir/matrix.json" > "$workdir/local.csv"
"$workdir/sweepd" -local -matrix "$workdir/crash-matrix.json" > "$workdir/crash-local.csv"

# ---- Phase 1: auth -------------------------------------------------
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary @"$workdir/jobspec.json" "$base/jobs")
[ "$code" = 401 ] || { echo "smoke: tokenless submit got $code, want 401" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "$base/jobs/job-1")
[ "$code" = 401 ] || { echo "smoke: tokenless cancel got $code, want 401" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/jobs")
[ "$code" = 200 ] || { echo "smoke: tokenless job list got $code, want 200" >&2; exit 1; }
curl -fsS "$base/healthz" | grep -q '"store"' || {
  echo "smoke: healthz is missing job-store counters" >&2; exit 1
}

run_job() { # run_job <jobspec> <output-csv>; prints the job's final status JSON
  local spec="$1" out="$2" id
  id=$(curl -fsS -X POST -H 'Content-Type: application/json' "${auth[@]}" \
    --data-binary @"$spec" "$base/jobs" |
    grep -o '"id":"[^"]*"' | head -n1 | cut -d'"' -f4)
  [ -n "$id" ] || { echo "smoke: no job id in submit response" >&2; exit 1; }
  # The progress stream is the poll: it ends at the terminal event.
  curl -fsS "$base/jobs/$id/progress" > "$workdir/progress.ndjson"
  grep -q '"state":"done"' "$workdir/progress.ndjson" || {
    echo "smoke: job $id did not finish clean:" >&2
    cat "$workdir/progress.ndjson" >&2
    exit 1
  }
  curl -fsS "$base/jobs/$id/result?format=csv" > "$out"
  curl -fsS "$base/jobs/$id"
}

# ---- Phase 2: cold + warm ------------------------------------------
status=$(run_job "$workdir/jobspec.json" "$workdir/cold.csv")
echo "$status" | grep -q '"cache_hits":0[,}]' || {
  echo "smoke: cold run should have 0 cache hits: $status" >&2; exit 1
}
cmp "$workdir/local.csv" "$workdir/cold.csv" || {
  echo "smoke: served CSV (cold) differs from local sweep" >&2; exit 1
}

status=$(run_job "$workdir/jobspec.json" "$workdir/warm.csv")
total=$(echo "$status" | grep -o '"total":[0-9]*' | cut -d: -f2)
echo "$status" | grep -q "\"cache_hits\":$total[,}]" || {
  echo "smoke: warm run should have $total cache hits: $status" >&2; exit 1
}
cmp "$workdir/local.csv" "$workdir/warm.csv" || {
  echo "smoke: served CSV (warm) differs from local sweep" >&2; exit 1
}

# ---- Phase 3: kill -9 mid-job, restart, resume ---------------------
crash_id=$(curl -fsS -X POST -H 'Content-Type: application/json' "${auth[@]}" \
  --data-binary @"$workdir/crash-jobspec.json" "$base/jobs" |
  grep -o '"id":"[^"]*"' | head -n1 | cut -d'"' -f4)
[ -n "$crash_id" ] || { echo "smoke: no crash job id" >&2; exit 1; }

# Wait until the journal holds some but not all replicas, then pull
# the plug on the daemon.
done_before=""
for _ in $(seq 1 300); do
  st=$(curl -fsS "$base/jobs/$crash_id")
  done_now=$(echo "$st" | grep -o '"done":[0-9]*' | cut -d: -f2)
  crash_total=$(echo "$st" | grep -o '"total":[0-9]*' | cut -d: -f2)
  if [ "$done_now" -ge 1 ] && [ "$done_now" -lt "$crash_total" ]; then
    done_before=$done_now
    break
  fi
  if [ "$done_now" = "$crash_total" ]; then
    echo "smoke: crash job finished before the kill landed; enlarge the crash matrix" >&2
    exit 1
  fi
  sleep 0.05
done
[ -n "$done_before" ] || { echo "smoke: crash job never progressed" >&2; exit 1; }

kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

start_server
st=$(curl -fsS "$base/jobs/$crash_id") || {
  echo "smoke: crash job vanished across the restart" >&2; exit 1
}
done_after=$(echo "$st" | grep -o '"done":[0-9]*' | cut -d: -f2)
[ "$done_after" -ge "$done_before" ] || {
  echo "smoke: restart lost journaled replicas: $done_before -> $done_after" >&2; exit 1
}
echo "smoke: crash job resumed at $done_after/$crash_total (was $done_before at kill)"

# The restarted daemon's own pool finishes the remaining replicas.
for _ in $(seq 1 200); do
  st=$(curl -fsS "$base/jobs/$crash_id")
  echo "$st" | grep -q '"state":"done"' && break
  sleep 0.05
done
echo "$st" | grep -q '"state":"done"' || {
  echo "smoke: crash job did not finish after restart: $st" >&2; exit 1
}
curl -fsS "$base/jobs/$crash_id/result?format=csv" > "$workdir/crash.csv"
cmp "$workdir/crash-local.csv" "$workdir/crash.csv" || {
  echo "smoke: resumed CSV differs from local sweep" >&2; exit 1
}

# ---- Phase 4: graceful shutdown ------------------------------------
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

echo "sweepd smoke: OK (auth + cold + warm + kill-9 resume byte-identical, clean drain)"
