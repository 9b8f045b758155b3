#!/usr/bin/env bash
# SIGUSR1 smoke (docs/OBSERVABILITY.md): a running basil_node replica must dump a
# parseable basil-metrics-v1 snapshot on demand — without stopping — and the
# snapshot must validate under metrics_merge --check.
#
# Usage: check_metrics_snapshot.sh <path-to-basil_node> <path-to-metrics_merge>
set -u

BASIL_NODE="${1:?usage: check_metrics_snapshot.sh <basil_node> <metrics_merge>}"
METRICS_MERGE="${2:?usage: check_metrics_snapshot.sh <basil_node> <metrics_merge>}"

WORKDIR="$(mktemp -d)"
PORT_BASE=$((30000 + ($$ % 20000)))
PID=

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

CFG="$WORKDIR/cluster.cfg"
{
  echo "f 1"
  echo "shards 1"
  echo "seed 4242"
  for i in 0 1 2 3 4 5; do
    echo "node $i replica 127.0.0.1 $((PORT_BASE + i))"
  done
  echo "node 6 client 127.0.0.1 $((PORT_BASE + 6))"
} > "$CFG"

SNAP="$WORKDIR/snap.json"
# One replica is enough: the snapshot machinery is per-process and needs no quorum.
"$BASIL_NODE" --config "$CFG" --id 0 --workers 2 --metrics-out "$SNAP" \
  > "$WORKDIR/replica0.log" 2>&1 &
PID=$!

for _ in $(seq 1 100); do
  grep -q READY "$WORKDIR/replica0.log" 2>/dev/null && break
  sleep 0.1
done
if ! grep -q READY "$WORKDIR/replica0.log"; then
  echo "FAIL: replica did not become ready"
  cat "$WORKDIR/replica0.log"
  exit 1
fi

kill -USR1 "$PID"
for _ in $(seq 1 100); do
  grep -q "METRICS " "$WORKDIR/replica0.log" 2>/dev/null && break
  sleep 0.1
done
if ! grep -q "METRICS " "$WORKDIR/replica0.log"; then
  echo "FAIL: replica never reported a metrics dump after SIGUSR1"
  cat "$WORKDIR/replica0.log"
  exit 1
fi
# The dump must still be a live process (SIGUSR1 is non-disruptive).
if ! kill -0 "$PID" 2>/dev/null; then
  echo "FAIL: replica exited after SIGUSR1"
  exit 1
fi

if ! "$METRICS_MERGE" --check "$SNAP"; then
  echo "FAIL: snapshot did not validate"
  cat "$SNAP"
  exit 1
fi
# Spot-check that runtime instrumentation is present in the dump, including the
# transport counters published at dump time (TcpRuntime::PublishMetrics).
for name in "rt.loop.queue_wait_ns" "rt.strand.queue_depth" \
    "rt.net.msgs_sent" "rt.net.msgs_received" "rt.net.bytes_sent" \
    "rt.net.bytes_received" "rt.net.decode_failures" "rt.strand.posted_tasks" \
    "rt.crypto.inline_checks" "rt.crypto.offloaded_checks"; do
  if ! grep -q "$name" "$SNAP"; then
    echo "FAIL: snapshot is missing metric $name"
    exit 1
  fi
done

echo "PASS: SIGUSR1 produced a valid basil-metrics-v1 snapshot"
exit 0
