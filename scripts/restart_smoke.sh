#!/bin/sh
# restart_smoke.sh — crash-recovery smoke of the persistent store,
# against the real binaries over real sockets.
#
# Three server lifetimes over one deterministic hot-DB workload:
#   1. a storeless session server records the reference verdicts (each
#      verified against a direct library call by ddbload -verify);
#   2. a store-backed server with the cost planner on is SIGKILLed in
#      the middle of the same load — a crash with the append log
#      possibly torn mid-record;
#   3. a planner-on server restarted on the same -store directory must
#      recover without errors, gate readiness on the prewarm, replay
#      the identical workload with every jointly-completed verdict
#      equal to the recorded storeless reference, hit the compiled-DB
#      cache, flush the store on a clean SIGTERM drain — and leave no
#      temp state behind.
#
# Each lifetime binds 127.0.0.1:0 and the bound port is parsed from
# its log (smoke_lib.sh), so the three passes — and parallel CI jobs —
# never collide on a fixed port.
set -eu

. "$(dirname "$0")/smoke_lib.sh"

TMP="${TMPDIR:-/tmp}"
STOREDIR="$TMP/ddbserve-restart-store.$$"
REF="$TMP/ddbload-restart-ref.$$.json"
SERVE="$TMP/ddbserve-restart-smoke"
LOAD="$TMP/ddbload-restart-smoke"

go build -o "$SERVE" ./cmd/ddbserve
go build -o "$LOAD" ./cmd/ddbload

rm -rf "$STOREDIR"
mkdir -p "$STOREDIR"
SRV=""
cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$STOREDIR" "$REF"
}
trap cleanup EXIT

WORKLOAD="-rate 200 -requests 240 -seed 55 -maxatoms 6 -hotdbs 6 -deadline 10s"

# --- pass 1: storeless reference recording -------------------------
ALOG="$TMP/ddbserve-restart-ref.log"
: >"$ALOG"
"$SERVE" -addr 127.0.0.1:0 -maxconcurrent 4 -queue 64 -sessions \
    -draintimeout 10s >"$ALOG" 2>&1 &
SRV=$!
URL=$(bound_url "$ALOG" "restart-smoke: reference")
wait_ready "$URL" "restart-smoke: reference" "$ALOG" "$SRV"
# shellcheck disable=SC2086
"$LOAD" -url "$URL" $WORKLOAD -verify -record "$REF"
kill -TERM "$SRV"
STATUS=0
wait "$SRV" || STATUS=$?
SRV=""
if [ "$STATUS" -ne 0 ]; then
    echo "restart-smoke: reference drain exited with status $STATUS" >&2
    cat "$ALOG" >&2
    exit 1
fi

# --- pass 2: store-backed server SIGKILLed mid-load ----------------
KLOG="$TMP/ddbserve-restart-kill.log"
: >"$KLOG"
"$SERVE" -addr 127.0.0.1:0 -maxconcurrent 4 -queue 64 \
    -store "$STOREDIR" -planner -draintimeout 10s >"$KLOG" 2>&1 &
SRV=$!
URL=$(bound_url "$KLOG" "restart-smoke: victim")
wait_ready "$URL" "restart-smoke: victim" "$KLOG" "$SRV"
# The load runs in the background; the server dies under it, so the
# driver's transport errors are expected and ignored.
# shellcheck disable=SC2086
"$LOAD" -url "$URL" $WORKLOAD >/dev/null 2>&1 &
LOADPID=$!
sleep 0.6
kill -KILL "$SRV" 2>/dev/null || true
wait "$LOADPID" 2>/dev/null || true
wait "$SRV" 2>/dev/null || true
SRV=""

# --- pass 3: restart on the same store directory -------------------
RLOG="$TMP/ddbserve-restart.log"
: >"$RLOG"
"$SERVE" -addr 127.0.0.1:0 -maxconcurrent 4 -queue 64 \
    -store "$STOREDIR" -planner -draintimeout 10s >"$RLOG" 2>&1 &
SRV=$!
URL=$(bound_url "$RLOG" "restart-smoke: restart")
wait_ready "$URL" "restart-smoke: restart" "$RLOG" "$SRV"
if grep -q "store recovery error" "$RLOG"; then
    echo "restart-smoke: recovery error after SIGKILL:" >&2
    cat "$RLOG" >&2
    exit 1
fi
grep -q "store: recovered" "$RLOG" || {
    echo "restart-smoke: restarted server log missing recovery line" >&2
    cat "$RLOG" >&2
    exit 1
}
# Replay the identical workload: -verify pins every completed verdict
# to a direct library call, -replay pins it to the storeless reference
# recording; ddbload exits nonzero on any divergence or an empty
# comparison.
# shellcheck disable=SC2086
"$LOAD" -url "$URL" $WORKLOAD -verify -replay "$REF" -settle

HEALTH="$(curl -sf "$URL/healthz")"
if echo "$HEALTH" | grep -q '"compiled_hits":0'; then
    echo "restart-smoke: compiled-DB cache never hit after restart:" >&2
    echo "$HEALTH" >&2
    exit 1
fi
for section in store planner; do
    echo "$HEALTH" | grep -q "\"$section\"" || {
        echo "restart-smoke: /healthz missing $section section:" >&2
        echo "$HEALTH" >&2
        exit 1
    }
done

kill -TERM "$SRV"
STATUS=0
wait "$SRV" || STATUS=$?
SRV=""
if [ "$STATUS" -ne 0 ]; then
    echo "restart-smoke: drain exited with status $STATUS" >&2
    cat "$RLOG" >&2
    exit 1
fi
grep -q "store flushed on drain" "$RLOG" || {
    echo "restart-smoke: drained server log missing store-flush marker" >&2
    cat "$RLOG" >&2
    exit 1
}
grep -q "clean drain" "$RLOG" || {
    echo "restart-smoke: drained server log missing clean-drain marker" >&2
    cat "$RLOG" >&2
    exit 1
}

echo "restart-smoke: clean (reference + SIGKILL recovery + pre-warmed replay)"
