#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the inference service's
# robustness contract, against the real binaries over real sockets.
#
# Starts ddbserve with a deliberately tiny admission capacity and a 5%
# injected fault rate, drives it with ddbload far above the admission
# limit, and hard-fails on:
#   - any untyped outcome (a body outside the typed taxonomy),
#   - any served verdict that diverges from a direct library call,
#   - server goroutines that fail to settle back to baseline,
#   - a drain that doesn't exit cleanly on SIGTERM.
#
# Every server binds 127.0.0.1:0; the bound port is parsed from the
# server's startup log (smoke_lib.sh), so parallel runs never collide.
set -eu

. "$(dirname "$0")/smoke_lib.sh"

LOG="${TMPDIR:-/tmp}/ddbserve-smoke.log"

go build -o "${TMPDIR:-/tmp}/ddbserve-smoke" ./cmd/ddbserve
go build -o "${TMPDIR:-/tmp}/ddbload-smoke" ./cmd/ddbload

: >"$LOG"
"${TMPDIR:-/tmp}/ddbserve-smoke" \
    -addr 127.0.0.1:0 -maxconcurrent 2 -queue 4 \
    -faultrate 0.05 -faultseed 7 -retrymax 2 \
    -draintimeout 10s >"$LOG" 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT

URL=$(bound_url "$LOG" serve-smoke)
wait_ready "$URL" serve-smoke "$LOG" "$SRV"

# Offered load far above the admission limit (capacity 2+4), with
# verdict verification against direct library calls and a goroutine
# settle check. ddbload exits nonzero on any contract violation.
"${TMPDIR:-/tmp}/ddbload-smoke" \
    -url "$URL" -rate 1000 -requests 500 -seed 21 -maxatoms 6 \
    -deadline 10s -verify -settle

# Graceful drain: SIGTERM must produce a clean exit (status 0).
kill -TERM "$SRV"
STATUS=0
wait "$SRV" || STATUS=$?
trap - EXIT
if [ "$STATUS" -ne 0 ]; then
    echo "serve-smoke: drain exited with status $STATUS" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q "clean drain" "$LOG" || {
    echo "serve-smoke: server log missing clean-drain marker" >&2
    cat "$LOG" >&2
    exit 1
}

# --- session smoke -------------------------------------------------
# Second pass with the warm-session layer on and a repeat-DB workload:
# a fixed pool of 6 databases replayed with verdict verification. Every
# session-served, memo, or fast-path verdict must match the direct
# library call (ddbload exits nonzero on divergence), the session layer
# must actually engage, and no session may stay checked out afterwards.
SLOG="${TMPDIR:-/tmp}/ddbserve-session-smoke.log"
: >"$SLOG"
"${TMPDIR:-/tmp}/ddbserve-smoke" \
    -addr 127.0.0.1:0 -maxconcurrent 2 -queue 4 \
    -sessions -retrymax 2 \
    -draintimeout 10s >"$SLOG" 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT

URL=$(bound_url "$SLOG" session-smoke)
wait_ready "$URL" session-smoke "$SLOG" "$SRV"

"${TMPDIR:-/tmp}/ddbload-smoke" \
    -url "$URL" -rate 1000 -requests 500 -seed 33 -maxatoms 6 \
    -hotdbs 6 -deadline 10s -verify -settle

HEALTH="$(curl -sf "$URL/healthz")"
echo "$HEALTH" | grep -q '"active_checkouts":0' || {
    echo "session-smoke: session checkout leak (or missing section):" >&2
    echo "$HEALTH" >&2
    exit 1
}
if echo "$HEALTH" | grep -q '"compiled_hits":0'; then
    echo "session-smoke: compiled-DB cache never hit on a repeat-DB workload:" >&2
    echo "$HEALTH" >&2
    exit 1
fi

kill -TERM "$SRV"
STATUS=0
wait "$SRV" || STATUS=$?
trap - EXIT
if [ "$STATUS" -ne 0 ]; then
    echo "session-smoke: drain exited with status $STATUS" >&2
    cat "$SLOG" >&2
    exit 1
fi
grep -q "clean drain" "$SLOG" || {
    echo "session-smoke: server log missing clean-drain marker" >&2
    cat "$SLOG" >&2
    exit 1
}
# --- batch + stream smoke ------------------------------------------
# Third pass: the amortized endpoints. A hot-DB workload replayed in
# /v1/batch chunks with verdict verification, eight NDJSON streams
# set-compared against direct library enumeration, then a deliberately
# long stream (a 20-atom disjunction: ~10^6 models) interrupted by
# SIGTERM — the stream must end with a typed terminal record and the
# server must still drain cleanly.
BLOG="${TMPDIR:-/tmp}/ddbserve-batch-smoke.log"
SOUT="${TMPDIR:-/tmp}/ddbserve-stream-smoke.ndjson"
: >"$BLOG"
"${TMPDIR:-/tmp}/ddbserve-smoke" \
    -addr 127.0.0.1:0 -maxconcurrent 2 -queue 4 \
    -sessions -retrymax 2 \
    -draintimeout 10s >"$BLOG" 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT

URL=$(bound_url "$BLOG" batch-smoke)
wait_ready "$URL" batch-smoke "$BLOG" "$SRV"

# Batch replay + stream verification; ddbload exits nonzero on any
# untyped or divergent outcome.
"${TMPDIR:-/tmp}/ddbload-smoke" \
    -url "$URL" -requests 160 -seed 44 -maxatoms 6 \
    -hotdbs 4 -batchsize 8 -streams 8 -deadline 10s -verify -settle

# Long stream cut by drain. The wide disjunction has ~2^20 models, so
# the enumeration is still running when SIGTERM lands.
WIDE="p0"
for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19; do
    WIDE="$WIDE | p$i"
done
: >"$SOUT"
curl -sN -X POST "$URL/v1/models/stream" \
    -H 'Content-Type: application/json' \
    -d "{\"db\":\"$WIDE.\",\"kind\":\"models\"}" >"$SOUT" &
CURL=$!
sleep 0.5

kill -TERM "$SRV"
STATUS=0
wait "$SRV" || STATUS=$?
trap - EXIT
if [ "$STATUS" -ne 0 ]; then
    echo "batch-smoke: drain exited with status $STATUS" >&2
    cat "$BLOG" >&2
    exit 1
fi
grep -q "clean drain" "$BLOG" || {
    echo "batch-smoke: server log missing clean-drain marker" >&2
    cat "$BLOG" >&2
    exit 1
}
wait "$CURL" || true
grep -q '"model"' "$SOUT" || {
    echo "batch-smoke: interrupted stream emitted no model rows" >&2
    tail -2 "$SOUT" >&2
    exit 1
}
tail -1 "$SOUT" | grep -q '"done":true' || {
    echo "batch-smoke: interrupted stream missing terminal record" >&2
    tail -2 "$SOUT" >&2
    exit 1
}
tail -1 "$SOUT" | grep -q '"cause":"canceled"' || {
    echo "batch-smoke: interrupted stream terminal cause is not typed 'canceled'" >&2
    tail -1 "$SOUT" >&2
    exit 1
}

# --- restart smoke (crash recovery) --------------------------------
# Fourth pass: the persistent store's crash-recovery contract —
# storeless reference recording, a store-backed server SIGKILLed
# mid-load, and a pre-warmed restart replaying identical verdicts.
# Standalone so CI can also run it as its own job; skippable when the
# caller runs it separately.
if [ -z "${SERVE_SMOKE_SKIP_RESTART:-}" ]; then
    sh "$(dirname "$0")/restart_smoke.sh"
fi

echo "serve-smoke: clean (fresh + session + batch/stream + restart)"
