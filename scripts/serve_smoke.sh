#!/usr/bin/env bash
# Smoke test for stcc-serve: build it, boot it, hit the read-only
# endpoints, run one tiny job end to end, resubmit it as a cache hit and
# once more with a new seed, and shut it down cleanly.
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

# run_job BODY submits BODY, waits for the job to end and prints its
# id; it fails unless the job ends done.
run_job() {
    local job state=""
    job=$(curl -fsS -d "$1" "$BASE/v1/jobs" | sed -n 's/^{"id":"\([^"]*\)".*/\1/p')
    if [ -z "$job" ]; then echo "job submission returned no id" >&2; return 1; fi
    for i in $(seq 1 150); do
        state=$(curl -fsS "$BASE/v1/jobs/$job" | sed -n 's/^{"id":"[^"]*","state":"\([^"]*\)".*/\1/p')
        case "$state" in done|failed|canceled) break ;; esac
        sleep 0.2
    done
    if [ "$state" != done ]; then
        echo "job $job ended in state '$state'" >&2; curl -fsS "$BASE/v1/jobs/$job" >&2; return 1
    fi
    echo "$job"
}

# result ID prints job ID's result JSON, the last field of its status.
result() { curl -fsS "$BASE/v1/jobs/$1" | sed -n 's/.*,"result":\(.*\)}$/\1/p'; }

# metric NAME prints the /metrics sample NAME.
metric() {
    curl -fsS "$BASE/metrics" >"$WORKDIR/metrics"
    sed -n "s/^$1 //p" "$WORKDIR/metrics"
}

# One tiny simulation (a 4-ary 2-cube, 500 cycles) as a bare config —
# the same wire form "stcc run -spec" reads.
CONFIG='{"version":1,"k":4,"n":2,"vcs":3,"buf_depth":8,"packet_length":16,"mode":"recovery","deadlock_timeout":160,"sideband_hop_delay":2,"sideband_mechanism":"sideband","selection":"rotate","switching":"wormhole","pattern":"random","rate":0.005,"scheme":{"kind":"base"},"warmup_cycles":100,"measure_cycles":400,"seed":1}'
JOB=$(run_job "$CONFIG")
echo "job $JOB: done"

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

# The same config again is a cache hit with byte-identical result JSON,
# and the daemon holds that result once: the held-bytes gauge does not
# grow.
HELD=$(metric stcc_results_held_bytes)
if [ -z "$HELD" ] || [ "$HELD" -le 0 ]; then echo "stcc_results_held_bytes is '$HELD', want positive"; exit 1; fi
REPEAT=$(run_job "$CONFIG")
curl -fsS "$BASE/v1/jobs/$REPEAT" >"$WORKDIR/body"
if ! grep -q '"cacheHit":true' "$WORKDIR/body"; then
    echo "resubmitted job $REPEAT was not a cache hit: $(cat "$WORKDIR/body")"; exit 1
fi
FIRST=$(result "$JOB")
if [ -z "$FIRST" ] || [ "$FIRST" != "$(result "$REPEAT")" ]; then
    echo "resubmitted job $REPEAT's result differs from job $JOB's"; exit 1
fi
if [ "$(metric stcc_results_held_bytes)" != "$HELD" ]; then
    echo "stcc_results_held_bytes grew from $HELD to $(metric stcc_results_held_bytes) on a repeated result"; exit 1
fi
echo "resubmission: cache hit, same result, held once ($HELD bytes)"

# The same config with another seed is a fresh simulation.
run_job "$(printf '%s' "$CONFIG" | sed 's/"seed":1}$/"seed":2}/')" >/dev/null
if [ "$(metric stcc_points_simulated_total)" != 2 ]; then
    echo "stcc_points_simulated_total = $(metric stcc_points_simulated_total) after a new seed, want 2"; exit 1
fi
echo "new seed: simulated"

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

# A scheme field its kind never reads is refused, not ignored: base
# reads no field, so a busy_limit would file base's run under a new
# fingerprint.
UNREAD=$(printf '%s' "$CONFIG" | sed 's/"scheme":{"kind":"base"}/"scheme":{"kind":"base","busy_limit":3}/')
CODE=$(curl -sS -o "$WORKDIR/body" -w '%{http_code}' -d "$UNREAD" "$BASE/v1/jobs")
if [ "$CODE" != 400 ] || ! grep -q 'busy_limit' "$WORKDIR/body"; then
    echo "POST with busy_limit on base returned $CODE $(cat "$WORKDIR/body"), want a 400 naming busy_limit"; exit 1
fi
curl -fsS "$BASE/healthz" >"$WORKDIR/body"
grep -q '"ok"' "$WORKDIR/body"
echo "busy_limit on base refused, healthz: ok"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
echo "drained: ok"
echo "serve smoke test passed"
