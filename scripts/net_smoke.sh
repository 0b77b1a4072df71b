#!/usr/bin/env bash
# Boots a 3-daemon real-transport cluster on localhost, drives the fig2-style
# mixed workload through `skueue-ingress` (sequential-consistency verifier
# on), exercises a join wave plus a leave through `skueue-ctl` — the leave
# while `skueue-load` keeps operations in flight — and shuts the cluster
# down.  Fails if any step exits non-zero, if a second daemon 0 or a second
# leave of the process that left does not fail at run time (exit 1, no usage
# line), if verification fails, if the load under churn does not drain, if
# `skueue-node` accepts a shard count it cannot run with, if a daemon runs
# more threads than its connections account for, or if a daemon does not
# exit cleanly — i.e. leaks a thread or its listener socket.
#
# Usage:
#   scripts/net_smoke.sh [BASE_PORT]
#
#   BASE_PORT  first of three consecutive TCP ports (default: 7451)
#
# See DEPLOY.md for the hand-run version of this walkthrough.
set -euo pipefail

cd "$(dirname "$0")/.."

BASE_PORT="${1:-7451}"
DAEMONS="127.0.0.1:${BASE_PORT},127.0.0.1:$((BASE_PORT + 1)),127.0.0.1:$((BASE_PORT + 2))"
COMMON=(--daemons "$DAEMONS" --initial 5 --shards 2)

cargo build --release --bins

BIN=target/release
PIDS=()
LOAD=
cleanup() {
    # Best-effort teardown if a step fails mid-run.
    for pid in "${PIDS[@]:-}" $LOAD; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

echo "== a shard count outside 1..=256 is a usage error, before anything binds"
status=0
timeout 5 "$BIN/skueue-node" --daemons "$DAEMONS" --initial 5 --index 0 --shards 0 || status=$?
if [ "$status" -ne 2 ]; then
    echo "skueue-node --shards 0 exited with $status, expected 2" >&2
    exit 1
fi

echo "== booting 3 daemons on $DAEMONS"
for i in 0 1 2; do
    "$BIN/skueue-node" "${COMMON[@]}" --index "$i" &
    PIDS+=($!)
done

echo "== cluster status"
"$BIN/skueue-ctl" "${COMMON[@]}" --cmd status

# Daemon 0 holds its listen address, so a second daemon 0 cannot bind it:
# a run-time failure (exit 1, no usage line), not a usage error.
echo "== a second daemon 0 fails to bind"
status=0
clash=$(timeout 5 "$BIN/skueue-node" "${COMMON[@]}" --index 0 2>&1) || status=$?
if [ "$status" -ne 1 ]; then
    echo "a second skueue-node --index 0 exited $status, not 1: $clash" >&2
    exit 1
fi
if grep -q "usage:" <<<"$clash"; then
    echo "the failed bind printed the usage: $clash" >&2
    exit 1
fi

echo "== fig2 workload through the ingress (verifier on)"
"$BIN/skueue-ingress" "${COMMON[@]}" --workload fig2 --ops 40 --seed 1

# A daemon runs its host thread, its listener and one reader per open
# connection — here the two other daemons, plus one for a client that has
# only just hung up — however many processes `--initial` gives it to host.
MAX_THREADS=5
echo "== daemon threads (at most $MAX_THREADS each)"
for pid in "${PIDS[@]}"; do
    threads=$(awk '/^Threads:/ { print $2 }' "/proc/$pid/status")
    echo "skueue-node pid $pid: $threads threads"
    if [ "$threads" -gt "$MAX_THREADS" ]; then
        echo "a daemon's thread count must not depend on the processes it hosts" >&2
        exit 1
    fi
done

echo "== join wave of 2, then leave one joiner under load"
"$BIN/skueue-ctl" "${COMMON[@]}" --cmd join --count 2
# Churn on an idle cluster cannot lose anything.  Three seconds of open-loop
# load route DHT operations through the leaver while it hands itself over; one
# that is lost on the way never completes, so the load would not drain (its
# exit status; the cluster has carried traffic, hence no history check).
"$BIN/skueue-load" "${COMMON[@]}" --rate 500 --ops 1500 --verify false --out /dev/null &
LOAD=$!
sleep 1
if ! kill -0 "$LOAD" 2>/dev/null; then
    echo "the load ended before the leave was issued" >&2
    exit 1
fi
"$BIN/skueue-ctl" "${COMMON[@]}" --cmd leave --pid 5
# Process 5 has left, so it may not issue: the daemon refuses a second leave,
# and skueue-ctl exits 1 at once instead of finding it gone — a refusal, not
# a usage error (exit 2 with the usage line).
echo "== a second leave of process 5 is refused"
status=0
refusal=$("$BIN/skueue-ctl" "${COMMON[@]}" --cmd leave --pid 5 --timeout-s 5 2>&1 >/dev/null) || status=$?
if [ "$status" -ne 1 ]; then
    echo "a second leave of process 5 exited $status, not 1: $refusal" >&2
    exit 1
fi
if grep -q "usage:" <<<"$refusal"; then
    echo "the refused leave printed the usage: $refusal" >&2
    exit 1
fi
wait "$LOAD"
LOAD=

echo "== shutdown"
"$BIN/skueue-ctl" "${COMMON[@]}" --cmd shutdown

# Every daemon must exit cleanly on its own — a hang here means a leaked
# thread or listener socket.
for pid in "${PIDS[@]}"; do
    wait "$pid"
done
PIDS=()
trap - EXIT

echo "net smoke passed: workload consistent, churn applied under load, clean shutdown"
