#!/usr/bin/env bash
# Network-serving smoke check (src/net, docs/NETWORK.md).
#
# Job 1 — loadgen byte-determinism: start the network server
# (crowdtopk_router at one shard, cache on) on an ephemeral loopback port,
# drive it with crowdtopk_loadgen (single worker, fixed seed), SIGTERM the
# server, then repeat with a *fresh* server under the same seed. The two
# loadgen reports must be byte-identical: every latency and cost figure is
# simulated time carried back in Result frames, so the whole report is a
# pure function of the seeds.
#
# Job 2 — graceful drain: both server runs must exit 0 on SIGTERM with a
# "drained" summary whose completed-query count matches the trace, i.e.
# every accepted query finished and was delivered before exit.
#
# Usage: tools/check_net_smoke.sh <build_dir>
set -eu

build="${1:?usage: tools/check_net_smoke.sh <build_dir>}"
server="$build/tools/crowdtopk_router"
loadgen="$build/tools/crowdtopk_loadgen"
[ -x "$server" ] || { echo "FAIL: $server not built"; exit 1; }
[ -x "$loadgen" ] || { echo "FAIL: $loadgen not built"; exit 1; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

queries=8
k=5

run_once() {  # run_once <tag>
  local tag="$1"
  local srv_log="$work/server_$tag.log"

  env CROWDTOPK_NET_PORT=0 CROWDTOPK_SHARDS=1 CROWDTOPK_CACHE=1 \
      "$server" > "$srv_log" 2>&1 &
  local srv_pid=$!

  local port=""
  for _ in $(seq 100); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
        "$srv_log" 2>/dev/null)"
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "FAIL($tag): server never reported its port"; cat "$srv_log"
    kill "$srv_pid" 2>/dev/null || true
    exit 1
  fi

  env CROWDTOPK_NET_PORT="$port" CROWDTOPK_LOADGEN_QUERIES="$queries" \
      CROWDTOPK_LOADGEN_K="$k" CROWDTOPK_LOADGEN_WORKERS=1 \
      CROWDTOPK_LOADGEN_REPORT="$work/report_$tag.txt" \
      "$loadgen" > /dev/null || {
    echo "FAIL($tag): loadgen reported transport errors"; cat "$srv_log"
    kill "$srv_pid" 2>/dev/null || true
    exit 1
  }

  kill -TERM "$srv_pid"
  local status=0
  wait "$srv_pid" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL($tag): server exited $status on SIGTERM"; cat "$srv_log"
    exit 1
  fi
  if ! grep -q "crowdtopk_router: drained" "$srv_log"; then
    echo "FAIL($tag): no drain summary in server log"; cat "$srv_log"
    exit 1
  fi
  if ! grep -q "completed=$queries" "$srv_log"; then
    echo "FAIL($tag): drain summary does not show completed=$queries"
    cat "$srv_log"
    exit 1
  fi
  echo "   OK($tag): $queries queries served, clean drain"
}

echo "== run 1: serve + drain =="
run_once run1
echo "== run 2: fresh server, same seed =="
run_once run2

echo "== loadgen report byte-identity =="
if ! cmp -s "$work/report_run1.txt" "$work/report_run2.txt"; then
  echo "FAIL: same-seed loadgen reports differ"
  diff "$work/report_run1.txt" "$work/report_run2.txt" | head -10
  exit 1
fi
echo "   OK: reports byte-identical"
echo "PASS: network smoke"
