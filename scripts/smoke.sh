#!/usr/bin/env bash
# End-to-end smoke test for the dgxsimd daemon: build it, start it with
# pprof enabled, run one traced simulation, and assert that the
# observability surface (request id, /v1/trace, /metrics gauges and
# histograms, /debug/pprof) is actually serving. CI runs this after the
# unit tests; locally, `make smoke`.
set -euo pipefail

ADDR="${SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/dgxsimd"
LOG="$(mktemp)"

cleanup() {
    [[ -n "${DAEMON_PID:-}" ]] && kill "$DAEMON_PID" 2>/dev/null || true
    [[ -n "${DAEMON_PID:-}" ]] && wait "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$(dirname "$BIN")" "$LOG"
}
trap cleanup EXIT

fail() {
    echo "smoke: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2
    exit 1
}

# check_exposition WHO TEXT: every non-comment line of a /metrics body is
# "series value" with a numeric value, and no series key appears twice.
# Both daemons render /metrics the same way, so one check reads both.
check_exposition() {
    awk -v who="$1" '
        /^#/ { next }
        NF != 2 || $2 !~ /^[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?$|^[-+]?Inf$|^NaN$/ {
            print "smoke: " who " /metrics: malformed line: " $0 > "/dev/stderr"; bad = 1
        }
        seen[$1]++ {
            print "smoke: " who " /metrics: duplicate series " $1 > "/dev/stderr"; bad = 1
        }
        END { exit bad }
    ' <<<"$2"
}

echo "smoke: building dgxsimd"
go build -o "$BIN" ./cmd/dgxsimd

echo "smoke: starting daemon on $ADDR"
"$BIN" -addr "$ADDR" -pprof 2>"$LOG" &
DAEMON_PID=$!

for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null || fail "daemon never became healthy"

echo "smoke: traced simulate request"
HDRS="$(mktemp)"
BODY='{"Model":"lenet","GPUs":2,"Batch":16,"Images":4096,"trace":true}'
curl -fsS -D "$HDRS" -o /dev/null -X POST "$BASE/v1/simulate" -d "$BODY" \
    || fail "POST /v1/simulate failed"
REQ_ID="$(awk 'tolower($1) == "x-request-id:" {print $2}' "$HDRS" | tr -d '\r')"
rm -f "$HDRS"
[[ -n "$REQ_ID" ]] || fail "response missing X-Request-ID"
echo "smoke: request id $REQ_ID"

echo "smoke: fetching trace"
TRACE="$(curl -fsS "$BASE/v1/trace/$REQ_ID")" || fail "GET /v1/trace/$REQ_ID failed"
grep -q '"traceEvents"' <<<"$TRACE" || fail "trace is not a Chrome trace document"
grep -q '"simulate"' <<<"$TRACE" || fail "trace missing the simulate service span"
grep -q '"stage":"FP"' <<<"$TRACE" || fail "trace missing simulator FP stage intervals"

echo "smoke: checking /metrics"
METRICS="$(curl -fsS "$BASE/metrics")" || fail "GET /metrics failed"
for series in \
    dgxsimd_pool_queue_wait_seconds_total \
    dgxsimd_pool_panics_total \
    dgxsimd_request_duration_seconds_bucket \
    dgxsimd_shed_total \
    dgxsimd_coalesced_total \
    dgxsimd_admission_queue_depth \
    dgxsimd_admission_queue_capacity \
    dgxsimd_sweep_streams_total \
    dgxsimd_sweep_streamed_cells_total \
    dgxsimd_compile_windows_total \
    dgxsimd_decode_memo_hits_total \
    dgxsimd_decode_memo_misses_total \
    dgxsimd_decode_memo_evictions_total \
    dgxsimd_inflight; do
    grep -q "$series" <<<"$METRICS" || fail "/metrics missing $series"
done
check_exposition replica "$METRICS" || fail "replica /metrics is not a well-formed exposition"

echo "smoke: API index"
INDEX="$(curl -fsS "$BASE/v1/")" || fail "GET /v1/ failed"
grep -q '"/v1/optimize"' <<<"$INDEX" || fail "index missing /v1/optimize"
grep -q 'application/x-ndjson' <<<"$INDEX" || fail "index does not advertise NDJSON sweeps"

echo "smoke: streaming sweep (NDJSON)"
SWEEP_BODY='{"Base":{"Model":"lenet","Batch":16,"Images":4096},"GPUs":[1,2],"Methods":["nccl"]}'
NDJSON="$(curl -fsS -X POST -H 'Accept: application/x-ndjson' "$BASE/v1/sweep" -d "$SWEEP_BODY")" \
    || fail "POST /v1/sweep (NDJSON) failed"
RECORDS="$(grep -c . <<<"$NDJSON")"
[[ "$RECORDS" -ge 2 ]] || fail "NDJSON stream returned $RECORDS records, want >= 2"
tail -n 1 <<<"$NDJSON" | grep -q '"summary"' || fail "stream missing the trailing summary record"
head -n 1 <<<"$NDJSON" | grep -q '"workload"' || fail "first stream record is not a cell report"

echo "smoke: optimizer"
OPT_BODY='{"base":{"Model":"lenet","Batch":16,"Images":4096},"objective":"min_epoch_time","space":{"gpus":[1,2,4],"methods":["nccl"]}}'
OPT="$(curl -fsS -X POST "$BASE/v1/optimize" -d "$OPT_BODY")" || fail "POST /v1/optimize failed"
grep -q '"frontier"' <<<"$OPT" || fail "optimize response missing the frontier"
grep -q '"fingerprint"' <<<"$OPT" || fail "optimize frontier missing per-point provenance"

echo "smoke: error envelope"
ENVELOPE="$(curl -s "$BASE/v1/bogus")"
grep -q '"code":"not_found"' <<<"$ENVELOPE" || fail "unknown /v1 path did not answer with the error envelope"

echo "smoke: out-of-memory workload (422)"
OOM_BODY="$(mktemp)"
OOM_STATUS="$(curl -s -o "$OOM_BODY" -w '%{http_code}' -X POST "$BASE/v1/simulate" \
    -d '{"Model":"googlenet","GPUs":1,"Batch":512}')"
OOM_CODE="$(grep -o '"code":"[a-z_]*"' "$OOM_BODY" || true)"
rm -f "$OOM_BODY"
[[ "$OOM_STATUS" == 422 ]] || fail "out-of-memory workload answered $OOM_STATUS, want 422"
[[ "$OOM_CODE" == '"code":"out_of_memory"' ]] || fail "out-of-memory workload envelope code is $OOM_CODE"

echo "smoke: fleet simulation request"
CLUSTER_BODY='{
  "nodes": [{"count": 2}],
  "jobs": [
    {"model": "lenet", "gpus": 1, "batch": 16, "images": 4096, "arrivalNs": 0},
    {"model": "lenet", "gpus": 1, "batch": 16, "images": 4096, "arrivalNs": 0},
    {"model": "lenet", "gpus": 4, "batch": 16, "images": 4096, "arrivalNs": 1000000000},
    {"model": "lenet", "gpus": 8, "batch": 16, "images": 4096, "arrivalNs": 2000000000},
    {"model": "lenet", "gpus": 1, "batch": 16, "images": 4096, "arrivalNs": 2000000000, "repeats": 3}
  ]
}'
CLUSTER="$(curl -fsS -X POST "$BASE/v1/cluster/simulate" -d "$CLUSTER_BODY")" \
    || fail "POST /v1/cluster/simulate failed"
grep -q '"jct"' <<<"$CLUSTER" || fail "cluster response missing the JCT block"
grep -q '"makespanNs"' <<<"$CLUSTER" || fail "cluster response missing makespan"
grep -q '"perNode"' <<<"$CLUSTER" || fail "cluster response missing per-node stats"
CLUSTER_METRICS="$(curl -fsS "$BASE/metrics")" || fail "GET /metrics after cluster failed"
grep -q 'dgxsimd_cluster_jobs_total 5' <<<"$CLUSTER_METRICS" \
    || fail "dgxsimd_cluster_jobs_total did not count the fleet's jobs"
grep -q 'dgxsimd_cluster_sim_seconds_count 1' <<<"$CLUSTER_METRICS" \
    || fail "dgxsimd_cluster_sim_seconds histogram did not observe the run"

echo "smoke: checking pprof"
curl -fsS "$BASE/debug/pprof/cmdline" >/dev/null || fail "pprof not mounted"

echo "smoke: checking access log"
grep -q "\"id\":\"$REQ_ID\"" "$LOG" || fail "access log missing request $REQ_ID"

echo "smoke: shed-path probe (tiny admission queue, concurrent flood)"
SHED_ADDR="${SMOKE_SHED_ADDR:-127.0.0.1:18081}"
SHED_BASE="http://$SHED_ADDR"
SHED_LOG="$(mktemp)"
"$BIN" -addr "$SHED_ADDR" -workers 1 -queue-depth 1 2>"$SHED_LOG" &
SHED_PID=$!
shed_cleanup() {
    kill "$SHED_PID" 2>/dev/null || true
    wait "$SHED_PID" 2>/dev/null || true
    rm -f "$SHED_LOG"
}
for i in $(seq 1 50); do
    curl -fsS "$SHED_BASE/healthz" >/dev/null 2>&1 && break
    kill -0 "$SHED_PID" 2>/dev/null || { cat "$SHED_LOG" >&2; shed_cleanup; fail "shed daemon exited during startup"; }
    sleep 0.1
done

# Flood the 1-worker/1-slot daemon with distinct (uncacheable,
# uncoalesceable) heavy workloads; at least one must be refused with
# 429 + Retry-After rather than parked. Retry a few rounds in case the
# first simulations finish before the flood overlaps.
GOT_429=0
for round in $(seq 1 5); do
    FLOOD_DIR="$(mktemp -d)"
    CURL_PIDS=()
    for i in $(seq 1 20); do
        curl -s -o /dev/null -D "$FLOOD_DIR/$i.hdr" -w '%{http_code}' \
            -X POST "$SHED_BASE/v1/simulate" \
            -d "{\"Model\":\"inception-v3\",\"GPUs\":8,\"Batch\":$((16 + round * 20 + i))}" \
            >"$FLOOD_DIR/$i.code" &
        CURL_PIDS+=($!)
    done
    # Wait for the flood only — a bare `wait` would also wait on the
    # daemons themselves.
    wait "${CURL_PIDS[@]}"
    for i in $(seq 1 20); do
        CODE="$(cat "$FLOOD_DIR/$i.code")"
        case "$CODE" in
        429)
            grep -qi '^retry-after:' "$FLOOD_DIR/$i.hdr" \
                || { rm -rf "$FLOOD_DIR"; shed_cleanup; fail "429 response missing Retry-After"; }
            GOT_429=1
            ;;
        200 | 503) ;;
        *)
            # Every request must be answered with a real status, never
            # dropped or crashed out.
            rm -rf "$FLOOD_DIR"; shed_cleanup; fail "unexpected status $CODE under flood"
            ;;
        esac
    done
    rm -rf "$FLOOD_DIR"
    [[ "$GOT_429" == 1 ]] && break
done
[[ "$GOT_429" == 1 ]] || { shed_cleanup; fail "flood never produced a 429 shed"; }

# The daemon must be fully healthy after the flood.
curl -fsS "$SHED_BASE/healthz" >/dev/null || { shed_cleanup; fail "shed daemon unhealthy after flood"; }
SHED_METRICS="$(curl -fsS "$SHED_BASE/metrics")" || { shed_cleanup; fail "shed daemon /metrics failed"; }
grep -q 'dgxsimd_shed_total [1-9]' <<<"$SHED_METRICS" \
    || { shed_cleanup; fail "dgxsimd_shed_total did not count the flood"; }
shed_cleanup
echo "smoke: shed-path probe OK"

echo "smoke: gateway probe (2 replicas + dgxsimgw: affinity, then failover)"
GW_BIN="$(dirname "$BIN")/dgxsimgw"
go build -o "$GW_BIN" ./cmd/dgxsimgw
R1_ADDR="${SMOKE_R1_ADDR:-127.0.0.1:18082}"
R2_ADDR="${SMOKE_R2_ADDR:-127.0.0.1:18083}"
GW_ADDR="${SMOKE_GW_ADDR:-127.0.0.1:18084}"
GW_BASE="http://$GW_ADDR"
GW_LOG="$(mktemp)"
R1_LOG="$(mktemp)"
R2_LOG="$(mktemp)"
"$BIN" -addr "$R1_ADDR" 2>"$R1_LOG" &
R1_PID=$!
"$BIN" -addr "$R2_ADDR" 2>"$R2_LOG" &
R2_PID=$!
# Both replicas must be serving before the gateway boots: its first
# health round is synchronous, and racing it would start the probe
# cycle with a replica spuriously down.
for ADDR_UP in "$R1_ADDR" "$R2_ADDR"; do
    for i in $(seq 1 50); do
        curl -fsS "http://$ADDR_UP/healthz" >/dev/null 2>&1 && break
        sleep 0.1
    done
done
# A long probe interval keeps the failover assertion deterministic: the
# post-kill request must hit the dead owner (transport failure -> retry
# on the survivor), not find it already probed out of the ring.
"$GW_BIN" -addr "$GW_ADDR" -replicas "http://$R1_ADDR,http://$R2_ADDR" -health-interval 30s 2>"$GW_LOG" &
GW_PID=$!
gw_cleanup() {
    kill "$GW_PID" "$R1_PID" "$R2_PID" 2>/dev/null || true
    wait "$GW_PID" "$R1_PID" "$R2_PID" 2>/dev/null || true
    rm -f "$GW_LOG" "$R1_LOG" "$R2_LOG"
}
gw_fail() {
    echo "--- gateway log ---" >&2; cat "$GW_LOG" >&2
    echo "--- replica 1 log ---" >&2; cat "$R1_LOG" >&2
    echo "--- replica 2 log ---" >&2; cat "$R2_LOG" >&2
    gw_cleanup
    fail "$@"
}
for i in $(seq 1 50); do
    curl -fsS "$GW_BASE/healthz" >/dev/null 2>&1 && break
    kill -0 "$GW_PID" 2>/dev/null || gw_fail "gateway exited during startup"
    sleep 0.1
done
curl -fsS "$GW_BASE/healthz" >/dev/null || gw_fail "gateway never became healthy"

# Flood one fingerprint through the gateway: every request must land on
# the same replica (cache affinity), a MISS exactly once.
GW_WORKLOAD='{"Model":"resnet","GPUs":4,"Batch":32,"Images":4096}'
OWNER=""
for i in $(seq 1 8); do
    GW_HDRS="$(mktemp)"
    curl -fsS -D "$GW_HDRS" -o /dev/null -X POST "$GW_BASE/v1/simulate" -d "$GW_WORKLOAD" \
        || { rm -f "$GW_HDRS"; gw_fail "gateway simulate $i failed"; }
    REPLICA="$(awk 'tolower($1) == "x-gw-replica:" {print $2}' "$GW_HDRS" | tr -d '\r')"
    CACHE="$(awk 'tolower($1) == "x-cache:" {print $2}' "$GW_HDRS" | tr -d '\r')"
    rm -f "$GW_HDRS"
    [[ -n "$REPLICA" ]] || gw_fail "response $i missing X-Gw-Replica"
    if [[ "$i" == 1 ]]; then
        OWNER="$REPLICA"
        [[ "$CACHE" == "MISS" ]] || gw_fail "first request X-Cache=$CACHE, want MISS"
    else
        [[ "$REPLICA" == "$OWNER" ]] || gw_fail "request $i routed to $REPLICA, owner is $OWNER — affinity broken"
        [[ "$CACHE" == "HIT" ]] || gw_fail "repeat request $i X-Cache=$CACHE, want HIT"
    fi
done
echo "smoke: affinity OK ($OWNER owns the fingerprint)"

# Both daemons memoize decoded bodies by their exact bytes. A
# whitespace-reformatted copy (different bytes, same workload) must route
# to the owner and come back byte-identical as a cache hit; the same copy
# with garbage appended, sent after its valid twin is memoized, must still
# be refused as bad_request.
GW_SPACED='{ "Model": "resnet", "GPUs": 4, "Batch": 32, "Images": 4096 }'
GW_REF="$(mktemp)"; GW_GOT="$(mktemp)"; GW_HDRS="$(mktemp)"
gw_memo_fail() { rm -f "$GW_REF" "$GW_GOT" "$GW_HDRS"; gw_fail "$@"; }
curl -fsS -o "$GW_REF" -X POST "$GW_BASE/v1/simulate" -d "$GW_WORKLOAD" \
    || gw_memo_fail "reference simulate failed"
curl -fsS -D "$GW_HDRS" -o "$GW_GOT" -X POST "$GW_BASE/v1/simulate" -d "$GW_SPACED" \
    || gw_memo_fail "reformatted simulate failed"
CACHE="$(awk 'tolower($1) == "x-cache:" {print $2}' "$GW_HDRS" | tr -d '\r')"
[[ "$CACHE" == "HIT" ]] || gw_memo_fail "reformatted body X-Cache=$CACHE, want HIT"
cmp -s "$GW_REF" "$GW_GOT" || gw_memo_fail "reformatted body's response differs from the original's"
STATUS="$(curl -sS -o "$GW_GOT" -w '%{http_code}' -X POST "$GW_BASE/v1/simulate" -d "$GW_SPACED garbage")"
[[ "$STATUS" == 400 ]] || gw_memo_fail "body with trailing garbage: status $STATUS, want 400"
grep -q '"code":"bad_request"' "$GW_GOT" || gw_memo_fail "body with trailing garbage: $(cat "$GW_GOT")"
rm -f "$GW_REF" "$GW_GOT" "$GW_HDRS"
echo "smoke: body memo OK (reformatted body hits, trailing garbage refused)"

# Kill the owner; the same fingerprint must fail over to the survivor.
case "$OWNER" in
"http://$R1_ADDR") kill "$R1_PID"; wait "$R1_PID" 2>/dev/null || true; SURVIVOR="http://$R2_ADDR" ;;
"http://$R2_ADDR") kill "$R2_PID"; wait "$R2_PID" 2>/dev/null || true; SURVIVOR="http://$R1_ADDR" ;;
*) gw_fail "owner $OWNER is neither replica" ;;
esac
GW_HDRS="$(mktemp)"
curl -fsS -D "$GW_HDRS" -o /dev/null -X POST "$GW_BASE/v1/simulate" -d "$GW_WORKLOAD" \
    || { rm -f "$GW_HDRS"; gw_fail "post-kill simulate failed (no failover)"; }
REPLICA="$(awk 'tolower($1) == "x-gw-replica:" {print $2}' "$GW_HDRS" | tr -d '\r')"
rm -f "$GW_HDRS"
[[ "$REPLICA" == "$SURVIVOR" ]] || gw_fail "post-kill request served by $REPLICA, want survivor $SURVIVOR"

# The gateway's own metrics must record the routing: the dead owner down
# (marked by the transport failure, not a probe), the survivor up, and
# the failover counted.
GW_METRICS="$(curl -fsS "$GW_BASE/metrics")" || gw_fail "gateway /metrics failed"
check_exposition gateway "$GW_METRICS" || gw_fail "gateway /metrics is not a well-formed exposition"
grep -q "dgxsimgw_replica_up{replica=\"$OWNER\"} 0" <<<"$GW_METRICS" \
    || gw_fail "dead owner still up in gateway metrics"
grep -q "dgxsimgw_replica_up{replica=\"$SURVIVOR\"} 1" <<<"$GW_METRICS" \
    || gw_fail "survivor not up in gateway metrics"
grep -q "dgxsimgw_replica_requests_total{replica=\"$OWNER\"} [1-9]" <<<"$GW_METRICS" \
    || gw_fail "owner request counter did not count the flood"
grep -q 'dgxsimgw_failovers_total [1-9]' <<<"$GW_METRICS" \
    || gw_fail "failover was not counted"
grep -q 'dgxsimgw_decode_memo_hits_total [1-9]' <<<"$GW_METRICS" \
    || gw_fail "the gateway routed no repeated body through its body memo"
gw_cleanup
echo "smoke: gateway probe OK"

echo "smoke: PASS"
