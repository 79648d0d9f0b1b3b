#!/bin/sh
# churn_smoke.sh — end-to-end smoke of the elastic-membership contract,
# against the real binaries over real sockets: TWO replicated ddbrouters
# (one-sided gossip peering) fronting three ddbserve workers, with the
# member set changing under load.
#
# Phases:
#   1. a verified warmup load through the primary router — every hot DB
#      routes to its ring owner and warms that worker's sessions;
#   2. the churn storm over the same seeded workload, with client-side
#      router failover (ddbload -url R1,R2): a 4th worker warm-joins
#      mid-load via POST /v1/cluster/join on the REPLICA router, then
#      the primary router is SIGKILLed — the load must finish with zero
#      untyped and zero divergent outcomes and >= 95% completion
#      (ddbload -mincomplete);
#   3. the joined worker must have served its prewarmed keyspace slice
#      with ZERO cold compiles (its sessions were imported from the
#      donors before the ring flipped);
#   4. a graceful drain of one original worker through the surviving
#      router, then a final verified load on the churned cluster;
#   5. clean SIGTERM exits for the surviving router and workers.
#
# Everything binds 127.0.0.1:0; ports are parsed from the startup logs
# (smoke_lib.sh), so parallel runs never collide.
set -eu

. "$(dirname "$0")/smoke_lib.sh"

TMP="${TMPDIR:-/tmp}"
SERVE="$TMP/ddbserve-churn-smoke"
ROUTER="$TMP/ddbrouter-churn-smoke"
LOAD="$TMP/ddbload-churn-smoke"

go build -o "$SERVE" ./cmd/ddbserve
go build -o "$ROUTER" ./cmd/ddbrouter
go build -o "$LOAD" ./cmd/ddbload

PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

# --- three workers -------------------------------------------------
WURLS=""
i=1
while [ "$i" -le 3 ]; do
    WLOG="$TMP/ddbserve-churn-w$i.log"
    : >"$WLOG"
    "$SERVE" -addr 127.0.0.1:0 -maxconcurrent 4 -queue 64 -sessions \
        -draintimeout 10s >"$WLOG" 2>&1 &
    WPID=$!
    eval "W${i}_PID=$WPID"
    PIDS="$PIDS $WPID"
    WURL=$(bound_url "$WLOG" "churn-smoke: worker $i")
    wait_ready "$WURL" "churn-smoke: worker $i" "$WLOG" "$WPID"
    eval "W${i}_URL=\$WURL"
    eval "W${i}_LOG=\$WLOG"
    WURLS="$WURLS,$WURL"
    i=$((i + 1))
done
WURLS="${WURLS#,}"

# --- two replicated routers ----------------------------------------
# The replica peers with the primary one-sidedly; push-pull gossip
# keeps both rings converged from either side.
R1LOG="$TMP/ddbrouter-churn-1.log"
: >"$R1LOG"
"$ROUTER" -addr 127.0.0.1:0 -workers "$WURLS" \
    -probeinterval 100ms -gossipinterval 100ms -failthreshold 2 -seed 7 >"$R1LOG" 2>&1 &
R1PID=$!
PIDS="$PIDS $R1PID"
R1URL=$(bound_url "$R1LOG" "churn-smoke: router 1")
wait_ready "$R1URL" "churn-smoke: router 1" "$R1LOG" "$R1PID"

R2LOG="$TMP/ddbrouter-churn-2.log"
: >"$R2LOG"
"$ROUTER" -addr 127.0.0.1:0 -workers "$WURLS" -peers "$R1URL" \
    -probeinterval 100ms -gossipinterval 100ms -failthreshold 2 -seed 8 >"$R2LOG" 2>&1 &
R2PID=$!
PIDS="$PIDS $R2PID"
R2URL=$(bound_url "$R2LOG" "churn-smoke: router 2")
wait_ready "$R2URL" "churn-smoke: router 2" "$R2LOG" "$R2PID"

# --- phase 1: verified warmup --------------------------------------
# The hot-DB pool this seed draws is the same pool the churn storm
# replays, so every key the joiner will own is warmed on a donor now.
# Twice: a text enters a worker's artifact cache on its second
# sighting, and only cached artifacts are shipped to a joiner.
for pass in 1 2; do
    "$LOAD" -url "$R1URL" -rate 400 -requests 200 -seed 21 -maxatoms 6 \
        -hotdbs 32 -deadline 10s -verify
done

# --- phase 2: churn storm ------------------------------------------
# A 4th worker comes up OUTSIDE the ring; mid-load it warm-joins via
# the replica router, and shortly after the primary router is
# SIGKILLed under the client.
W4_LOG="$TMP/ddbserve-churn-w4.log"
: >"$W4_LOG"
"$SERVE" -addr 127.0.0.1:0 -maxconcurrent 4 -queue 64 -sessions \
    -draintimeout 10s >"$W4_LOG" 2>&1 &
W4_PID=$!
PIDS="$PIDS $W4_PID"
W4_URL=$(bound_url "$W4_LOG" "churn-smoke: joiner")
wait_ready "$W4_URL" "churn-smoke: joiner" "$W4_LOG" "$W4_PID"

JOINOUT="$TMP/ddbrouter-churn-join.json"
(
    sleep 0.3
    curl -sf -X POST "$R2URL/v1/cluster/join?node=$W4_URL" >"$JOINOUT" || : >"$JOINOUT"
    sleep 0.3
    echo "churn-smoke: SIGKILLing router 1 mid-load"
    kill -KILL "$R1PID" 2>/dev/null || true
) &
CHURNER=$!
# Same seeded hot-DB workload, both routers offered to the client.
# ddbload enforces zero untyped, zero divergent, and the >=95%
# completion floor across the router kill.
"$LOAD" -url "$R1URL,$R2URL" -rate 400 -requests 400 -seed 21 -maxatoms 6 \
    -hotdbs 32 -deadline 10s -verify -mincomplete 0.95
wait "$CHURNER" 2>/dev/null || true
wait "$R1PID" 2>/dev/null || true

JOIN=$(cat "$JOINOUT")
echo "churn-smoke: join report: $JOIN"
echo "$JOIN" | grep -q '"state":"flipped"' || {
    echo "churn-smoke: warm join did not flip the ring" >&2
    cat "$R2LOG" >&2
    exit 1
}

# --- phase 3: zero cold compiles on the prewarmed slice ------------
HEALTH=$(curl -sf "$W4_URL/healthz")
COLD=$(echo "$HEALTH" | sed -n 's/.*"cold_compiles":\([0-9]*\).*/\1/p')
COMPILED=$(echo "$HEALTH" | sed -n 's/.*"compiled_entries":\([0-9]*\).*/\1/p')
echo "churn-smoke: joiner cold_compiles=${COLD:-?} compiled_entries=${COMPILED:-?}"
if [ "${COLD:-1}" -ne 0 ]; then
    echo "churn-smoke: joined worker ran cold compiles on its prewarmed slice:" >&2
    echo "$HEALTH" >&2
    exit 1
fi
if [ "${COMPILED:-0}" -eq 0 ]; then
    echo "churn-smoke: joined worker holds no imported compiled entries:" >&2
    echo "$HEALTH" >&2
    exit 1
fi

# --- phase 4: graceful drain + final verified load -----------------
DRAIN=$(curl -sf -X POST "$R2URL/v1/cluster/drain?node=$W1_URL")
echo "churn-smoke: drained worker 1: $DRAIN"
echo "$DRAIN" | grep -q '"artifacts":' || {
    echo "churn-smoke: drain response missing artifact count:" >&2
    echo "$DRAIN" >&2
    exit 1
}
kill -TERM "$W1_PID"
STATUS=0
wait "$W1_PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "churn-smoke: drained worker exited with status $STATUS" >&2
    cat "$W1_LOG" >&2
    exit 1
fi
# The churned cluster (two originals + the joiner, one router) must
# still serve a clean verified load.
"$LOAD" -url "$R2URL" -rate 400 -requests 200 -seed 22 -maxatoms 6 \
    -hotdbs 32 -deadline 10s -verify

# --- phase 5: clean shutdowns --------------------------------------
kill -TERM "$R2PID"
STATUS=0
wait "$R2PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "churn-smoke: surviving router exited with status $STATUS" >&2
    cat "$R2LOG" >&2
    exit 1
fi
grep -q "ddbrouter: bye" "$R2LOG" || {
    echo "churn-smoke: surviving router log missing clean-shutdown marker" >&2
    cat "$R2LOG" >&2
    exit 1
}
for i in 2 3 4; do
    eval "SPID=\$W${i}_PID"
    eval "SLOG=\$W${i}_LOG"
    kill -TERM "$SPID"
    STATUS=0
    wait "$SPID" || STATUS=$?
    if [ "$STATUS" -ne 0 ]; then
        echo "churn-smoke: worker $i exited with status $STATUS" >&2
        cat "$SLOG" >&2
        exit 1
    fi
    grep -q "clean drain" "$SLOG" || {
        echo "churn-smoke: worker $i log missing clean-drain marker" >&2
        cat "$SLOG" >&2
        exit 1
    }
done
trap - EXIT

echo "churn-smoke: clean (warmup + warm-join + router-kill + drain + shutdown)"
