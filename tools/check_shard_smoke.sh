#!/usr/bin/env bash
# Sharded scale-out smoke check (src/shard, docs/SHARDING.md).
#
# Job 1 — merged-report byte-determinism: start crowdtopk_router over four
# in-process shards, drive it with crowdtopk_loadgen under a fixed seed,
# drain, then repeat with a fresh router. The two merged per-query reports
# (pure columns, global-id order) must be byte-identical.
#
# Job 2 — shard-count invariance: a 1-shard router under the same seed
# must produce the same merged table bytes as the 4-shard runs. Placement
# only decides *where* a query runs, never its seed streams.
#
# Job 3 — failover: a 4-shard router with one shard killed by fault
# injection while executing its first batch must still exit 0 on SIGTERM
# with every admitted query completed, re-dispatch accounted in the drain
# summary, and the *same* merged table bytes as the healthy runs.
#
# Job 4 — remote shards: three 1-shard routers serve as far ends; a front
# router over two of them and another over the third must produce
# byte-identical merged tables (the far ends honor the front's seed-stream
# stamp), and every process must drain cleanly.
#
# Usage: tools/check_shard_smoke.sh <build_dir>
set -eu

build="${1:?usage: tools/check_shard_smoke.sh <build_dir>}"
router="$build/tools/crowdtopk_router"
loadgen="$build/tools/crowdtopk_loadgen"
[ -x "$router" ] || { echo "FAIL: $router not built"; exit 1; }
[ -x "$loadgen" ] || { echo "FAIL: $loadgen not built"; exit 1; }

work="$(mktemp -d)"
pids=""
trap 'kill $pids 2>/dev/null || true; rm -rf "$work"' EXIT

queries=12
k=5

# start_router <tag> [extra env as VAR=val ...]: starts a router in the
# background and sets $pid and $port.
start_router() {
  local tag="$1"
  shift
  local log="$work/router_$tag.log"
  env CROWDTOPK_NET_PORT=0 "$@" "$router" > "$log" 2>&1 &
  pid=$!
  pids="$pids $pid"
  port=""
  for _ in $(seq 100); do
    # The log may not exist yet; under `set -e` a failing sed would end
    # the script before the router printed its port.
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
        "$log" 2>/dev/null || true)"
    [ -n "$port" ] && return
    sleep 0.1
  done
  echo "FAIL($tag): router never reported its port"; cat "$log"
  exit 1
}

# stop_router <tag> <pid>: SIGTERM, then require exit 0 and a drain summary.
stop_router() {
  local tag="$1" victim="$2" status=0
  local log="$work/router_$tag.log"
  kill -TERM "$victim"
  wait "$victim" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL($tag): router exited $status on SIGTERM"; cat "$log"
    exit 1
  fi
  if ! grep -q "crowdtopk_router: drained" "$log"; then
    echo "FAIL($tag): no drain summary in router log"; cat "$log"
    exit 1
  fi
}

# completed <tag>: the completed-query count of a drained router.
completed() {
  sed -n 's/.* queries submitted=[0-9]* completed=\([0-9]*\).*/\1/p' \
      "$work/router_$1.log"
}

# run_once <tag> <shards> [extra env as VAR=val ...]
run_once() {
  local tag="$1" shards="$2"
  shift 2
  start_router "$tag" CROWDTOPK_SHARDS="$shards" \
      CROWDTOPK_ROUTER_REPORT="$work/report_$tag.txt" "$@"

  env CROWDTOPK_NET_PORT="$port" CROWDTOPK_LOADGEN_QUERIES="$queries" \
      CROWDTOPK_LOADGEN_K="$k" CROWDTOPK_LOADGEN_WORKERS=1 \
      "$loadgen" > "$work/loadgen_$tag.txt" || {
    echo "FAIL($tag): loadgen reported transport errors"
    cat "$work/router_$tag.log"
    exit 1
  }

  stop_router "$tag" "$pid"
  if [ "$(completed "$tag")" != "$queries" ]; then
    echo "FAIL($tag): drain summary does not show completed=$queries"
    cat "$work/router_$tag.log"
    exit 1
  fi
  # The merged table (pure columns only) is what all runs must agree on;
  # the report header carries shard counts and counters, so strip to the
  # table for the cross-run diffs.
  sed -n '/^gid,/,$p' "$work/report_$tag.txt" > "$work/table_$tag.txt"
  if [ ! -s "$work/table_$tag.txt" ]; then
    echo "FAIL($tag): merged report has no per-query table"
    cat "$work/report_$tag.txt"
    exit 1
  fi
  echo "   OK($tag): $queries queries routed, clean drain"
}

echo "== run 1: 4 shards =="
run_once run1 4
echo "== run 2: fresh 4-shard router, same seed =="
run_once run2 4

echo "== full merged-report byte-identity (fresh run, same config) =="
if ! cmp -s "$work/report_run1.txt" "$work/report_run2.txt"; then
  echo "FAIL: same-seed 4-shard merged reports differ"
  diff "$work/report_run1.txt" "$work/report_run2.txt" | head -10
  exit 1
fi
if ! cmp -s "$work/loadgen_run1.txt" "$work/loadgen_run2.txt"; then
  echo "FAIL: same-seed 4-shard loadgen reports differ"
  diff "$work/loadgen_run1.txt" "$work/loadgen_run2.txt" | head -10
  exit 1
fi
echo "   OK: merged + loadgen reports byte-identical"

echo "== run 3: 1 shard, same seed =="
run_once run3 1

echo "== shard-count invariance of the merged table =="
if ! cmp -s "$work/table_run1.txt" "$work/table_run3.txt"; then
  echo "FAIL: 4-shard and 1-shard merged tables differ"
  diff "$work/table_run1.txt" "$work/table_run3.txt" | head -10
  exit 1
fi
echo "   OK: K=4 and K=1 tables byte-identical"

echo "== run 4: 4 shards, shard 2 killed on its first batch =="
run_once run4 4 CROWDTOPK_SHARD_FAIL=2 CROWDTOPK_SHARD_FAIL_AFTER=1

echo "== failover completed every query with the same table bytes =="
if ! cmp -s "$work/table_run1.txt" "$work/table_run4.txt"; then
  echo "FAIL: shard-kill run's merged table differs from the healthy run"
  diff "$work/table_run1.txt" "$work/table_run4.txt" | head -10
  exit 1
fi
if ! grep -q "exhausted=0" "$work/router_run4.log"; then
  echo "FAIL: failover run exhausted a re-dispatch budget"
  cat "$work/router_run4.log"
  exit 1
fi
# Non-vacuity: the killed shard must actually have died mid-batch and
# queries must actually have been re-dispatched, or this run proves
# nothing about failover.
if ! grep -Eq "failures=[1-9]" "$work/router_run4.log" ||
   ! grep -Eq "redispatched=[1-9]" "$work/router_run4.log"; then
  echo "FAIL: shard-kill run recorded no failure/re-dispatch (vacuous)"
  cat "$work/router_run4.log"
  exit 1
fi
echo "   OK: failover run byte-identical, no exhausted queries"

echo "== runs 5 and 6: front routers over remote 1-shard routers =="
start_router far_a CROWDTOPK_SHARDS=1
pid_a=$pid port_a=$port
start_router far_b CROWDTOPK_SHARDS=1
pid_b=$pid port_b=$port
start_router far_c CROWDTOPK_SHARDS=1
pid_c=$pid port_c=$port
run_once run5 1 CROWDTOPK_SHARD_PORTS="$port_a,$port_b"
run_once run6 1 CROWDTOPK_SHARD_PORTS="$port_c"
stop_router far_a "$pid_a"
stop_router far_b "$pid_b"
stop_router far_c "$pid_c"

echo "== remote merged tables agree across far-end counts =="
if ! cmp -s "$work/table_run5.txt" "$work/table_run6.txt"; then
  echo "FAIL: 2-far-end and 1-far-end merged tables differ"
  diff "$work/table_run5.txt" "$work/table_run6.txt" | head -10
  exit 1
fi
# Non-vacuity: the far ends, not the fronts, ran every query.
if [ "$(( $(completed far_a) + $(completed far_b) ))" -ne "$queries" ] ||
   [ "$(completed far_c)" -ne "$queries" ]; then
  echo "FAIL: far ends did not complete every routed query"
  cat "$work/router_far_a.log" "$work/router_far_b.log" \
      "$work/router_far_c.log"
  exit 1
fi
echo "   OK: remote tables byte-identical, every far end drained cleanly"
echo "PASS: shard smoke"
