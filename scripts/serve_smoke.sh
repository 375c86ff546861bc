#!/usr/bin/env bash
# Smoke test for stcc-serve: build it, boot it, hit the read-only
# endpoints, run one tiny job end to end, and shut it down cleanly.
# CI runs this after the unit tests; `make serve-smoke` runs it locally.
set -euo pipefail

ADDR="${STCC_SERVE_ADDR:-127.0.0.1:18642}"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

go build -o "$WORKDIR/stcc-serve" ./cmd/stcc-serve

"$WORKDIR/stcc-serve" -addr "$ADDR" -cache "$WORKDIR/cache" -drain 30s \
    >"$WORKDIR/serve.log" 2>&1 &
SERVE_PID=$!

for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "stcc-serve died during startup:"; cat "$WORKDIR/serve.log"; exit 1
    fi
    sleep 0.2
done
# Capture bodies before grepping: under pipefail, `curl | grep -q`
# fails spuriously when grep exits at the first match and curl takes
# EPIPE on the rest of the body.
curl -fsS "$BASE/healthz" >"$WORKDIR/body"
grep -q '"ok"' "$WORKDIR/body"
echo "healthz: ok"

curl -fsS "$BASE/v1/version" >"$WORKDIR/body"
grep -q '"go_version"' "$WORKDIR/body"
echo "version: ok"

curl -fsS "$BASE/v1/registry" >"$WORKDIR/body"
grep -q '"fig4"' "$WORKDIR/body"
echo "registry: ok"

# One tiny simulation (a 4-ary 2-cube, 500 cycles) as a bare config —
# the same wire form "stcc run -spec" reads.
CONFIG='{"version":1,"k":4,"n":2,"vcs":3,"buf_depth":8,"packet_length":16,"mode":"recovery","deadlock_timeout":160,"sideband_hop_delay":2,"sideband_mechanism":"sideband","selection":"rotate","switching":"wormhole","pattern":"random","rate":0.005,"scheme":{"kind":"base"},"warmup_cycles":100,"measure_cycles":400,"seed":1}'
JOB=$(curl -fsS -d "$CONFIG" "$BASE/v1/jobs" | sed -n 's/^{"id":"\([^"]*\)".*/\1/p')
if [ -z "$JOB" ]; then echo "job submission returned no id"; exit 1; fi
echo "submitted: $JOB"

STATE=""
for i in $(seq 1 150); do
    STATE=$(curl -fsS "$BASE/v1/jobs/$JOB" | sed -n 's/^{"id":"[^"]*","state":"\([^"]*\)".*/\1/p')
    case "$STATE" in done) break ;; failed|canceled) break ;; esac
    sleep 0.2
done
if [ "$STATE" != "done" ]; then
    echo "job ended in state '$STATE'"; curl -fsS "$BASE/v1/jobs/$JOB"; exit 1
fi
echo "job: done"

# /metrics is the only metrics page: the old JSON document is gone.
CODE=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/metrics.json")
if [ "$CODE" != 404 ]; then echo "GET /metrics.json returned $CODE, want 404"; exit 1; fi
echo "metrics.json gone: ok"

# The Prometheus text page counts the job and its one simulated point,
# and has no shared-point counter.
curl -fsS "$BASE/metrics" >"$WORKDIR/body"
grep -q '^stcc_jobs_done_total 1$' "$WORKDIR/body"
grep -q '^# TYPE stcc_jobs_done_total counter$' "$WORKDIR/body"
grep -q '^stcc_points_simulated_total 1$' "$WORKDIR/body"
if grep -q 'stcc_points_shared_total' "$WORKDIR/body"; then
    echo "/metrics still exposes stcc_points_shared_total"; exit 1
fi
echo "metrics (prometheus): ok"

# The daemon's result store is reachable over /v1/cache (one entry: the
# job's single point).
curl -fsS "$BASE/v1/cache" >"$WORKDIR/body"
grep -qx '{"entries":1}' "$WORKDIR/body"
echo "cache endpoint: ok"

# The store cannot be written over HTTP: a PUT by fingerprint is refused
# and files nothing.
FP=$(printf '%064d' 0)
CODE=$(curl -sS -o /dev/null -w '%{http_code}' -X PUT -d '{"AcceptedFlits":1}' "$BASE/v1/cache/$FP")
case "$CODE" in 2??) echo "PUT /v1/cache/$FP returned $CODE, want it refused"; exit 1 ;; esac
curl -fsS "$BASE/v1/cache" >"$WORKDIR/body"
grep -qx '{"entries":1}' "$WORKDIR/body"
echo "cache put refused: ok ($CODE)"

# A sideband_bits of 64 once validated and then hung its job worker past
# cancellation: it is refused with a 400, and the daemon still answers.
WIDE=$(printf '%s' "$CONFIG" | sed 's/"sideband_hop_delay":2,/&"sideband_bits":64,/')
CODE=$(curl -sS -o "$WORKDIR/body" -w '%{http_code}' -d "$WIDE" "$BASE/v1/jobs")
if [ "$CODE" != 400 ] || ! grep -q 'width' "$WORKDIR/body"; then
    echo "POST with sideband_bits 64 returned $CODE $(cat "$WORKDIR/body"), want a 400 naming the width"; exit 1
fi
curl -fsS "$BASE/healthz" >"$WORKDIR/body"
grep -q '"ok"' "$WORKDIR/body"
echo "sideband_bits 64 refused, healthz: ok"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
echo "drained: ok"
echo "serve smoke test passed"
