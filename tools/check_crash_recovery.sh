#!/usr/bin/env bash
# Crash-recovery determinism check for the durable-state subsystem
# (src/persist, docs/PERSISTENCE.md).
#
# Job 1 — kill + resume byte-identity: run the serve CLI to completion for
# a reference report, then re-run with CROWDTOPK_PERSIST_KILL_BARRIER so
# the process _Exit(137)s right after a WAL batch lands, and --resume it.
# The resumed run's machine-readable report must byte-match the reference
# for CROWDTOPK_JOBS=1 and =8 (resume may even switch worker counts).
#
# Job 2 — corrupted WAL tail: flip a byte near the tail of the newest
# surviving segment before resuming. The resume must exit 0 (graceful
# degradation, not a crash), report dropped bytes, and still reproduce the
# reference report byte-for-byte — corruption only lengthens catch-up.
#
# Job 3 — corrupted snapshot: kill the run past its second periodic
# snapshot (a periodic snapshot waits until the judgment cache has
# doubled, so this run's first two with cache entries land late; the
# barrier-40 kill of jobs 1 and 2 leaves only the empty barrier-7 image),
# require two snapshot files, and flip a byte near the end of the newest
# before resuming. Recovery must skip it (snapshots_skipped=1 on the
# persist: line), fall back to the previous snapshot and verify its cache
# image (persist/snapshot_loaded and persist/cache_image_verified are 1 in
# the persist trace), exit 0, and still reproduce the reference report
# byte-for-byte.
#
# Usage: tools/check_crash_recovery.sh <build_dir>
set -eu

build="${1:?usage: tools/check_crash_recovery.sh <build_dir>}"
serve="$build/tools/crowdtopk_serve"
[ -x "$serve" ] || { echo "FAIL: $serve not built"; exit 1; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

queries=12
kill_barrier=40
snapshot_kill_barrier=1250

run_serve() {  # run_serve <jobs> <report> <persist_dir> [extra args...]
  local jobs="$1" report="$2" dir="$3"; shift 3
  env CROWDTOPK_SERVE_QUERIES="$queries" CROWDTOPK_CACHE=1 \
      CROWDTOPK_JOBS="$jobs" CROWDTOPK_SERVE_REPORT="$report" \
      CROWDTOPK_PERSIST_DIR="$dir" "$serve" "$@"
}

echo "== reference run (no persistence) =="
env CROWDTOPK_SERVE_QUERIES="$queries" CROWDTOPK_CACHE=1 CROWDTOPK_JOBS=4 \
    CROWDTOPK_SERVE_REPORT="$work/reference.jsonl" \
    "$serve" > /dev/null

for jobs in 1 8; do
  echo "== kill at barrier $kill_barrier + resume, jobs=$jobs =="
  dir="$work/persist_j$jobs"
  status=0
  env CROWDTOPK_SERVE_QUERIES="$queries" CROWDTOPK_CACHE=1 \
      CROWDTOPK_JOBS="$jobs" CROWDTOPK_PERSIST_DIR="$dir" \
      CROWDTOPK_PERSIST_KILL_BARRIER="$kill_barrier" \
      "$serve" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 137 ]; then
    echo "FAIL: kill run exited $status, expected 137"; exit 1
  fi
  run_serve "$jobs" "$work/resumed_j$jobs.jsonl" "$dir" --resume > /dev/null
  if ! cmp -s "$work/reference.jsonl" "$work/resumed_j$jobs.jsonl"; then
    echo "FAIL: resumed report (jobs=$jobs) differs from reference"
    diff "$work/reference.jsonl" "$work/resumed_j$jobs.jsonl" | head -5
    exit 1
  fi
  echo "   OK: resumed report byte-identical"
done

echo "== corrupted WAL tail degrades gracefully =="
dir="$work/persist_corrupt"
status=0
env CROWDTOPK_SERVE_QUERIES="$queries" CROWDTOPK_CACHE=1 \
    CROWDTOPK_JOBS=1 CROWDTOPK_PERSIST_DIR="$dir" \
    CROWDTOPK_PERSIST_KILL_BARRIER="$kill_barrier" \
    "$serve" > /dev/null 2>&1 || status=$?
[ "$status" -eq 137 ] || { echo "FAIL: kill run exited $status"; exit 1; }

segment="$(ls "$dir"/wal-*.log | sort | tail -1)"
size="$(stat -c%s "$segment")"
printf '\xff' | dd of="$segment" bs=1 seek=$((size - 3)) conv=notrunc 2>/dev/null
echo "   corrupted tail byte of $(basename "$segment")"

run_serve 8 "$work/resumed_corrupt.jsonl" "$dir" --resume \
  > "$work/corrupt_stdout.txt" 2> "$work/corrupt_stderr.txt"
if ! cmp -s "$work/reference.jsonl" "$work/resumed_corrupt.jsonl"; then
  echo "FAIL: post-corruption resume differs from reference"; exit 1
fi
if ! grep -q "dropped_bytes=[1-9]" "$work/corrupt_stdout.txt"; then
  echo "FAIL: resume did not report dropped WAL bytes"
  grep "^persist:" "$work/corrupt_stdout.txt" || true
  exit 1
fi
if ! grep -q "WAL tail damaged" "$work/corrupt_stderr.txt"; then
  echo "FAIL: resume did not warn about the damaged tail"; exit 1
fi
echo "   OK: clean exit, dropped bytes reported, report byte-identical"

echo "== corrupted snapshot falls back to the previous one =="
dir="$work/persist_snapshot"
status=0
env CROWDTOPK_SERVE_QUERIES="$queries" CROWDTOPK_CACHE=1 \
    CROWDTOPK_JOBS=1 CROWDTOPK_PERSIST_DIR="$dir" \
    CROWDTOPK_PERSIST_KILL_BARRIER="$snapshot_kill_barrier" \
    "$serve" > /dev/null 2>&1 || status=$?
[ "$status" -eq 137 ] || { echo "FAIL: kill run exited $status"; exit 1; }

snapshots="$(ls "$dir"/snapshot-*.snap | wc -l)"
if [ "$snapshots" -lt 2 ]; then
  echo "FAIL: kill at barrier $snapshot_kill_barrier left $snapshots" \
       "snapshot(s); the fallback needs 2"
  exit 1
fi
snapshot="$(ls "$dir"/snapshot-*.snap | sort | tail -1)"
size="$(stat -c%s "$snapshot")"
printf '\xff' | dd of="$snapshot" bs=1 seek=$((size - 3)) conv=notrunc 2>/dev/null
echo "   corrupted tail byte of $(basename "$snapshot")"

run_serve 8 "$work/resumed_snapshot.jsonl" "$dir" --resume \
  > "$work/snapshot_stdout.txt"
if ! cmp -s "$work/reference.jsonl" "$work/resumed_snapshot.jsonl"; then
  echo "FAIL: resume past a corrupt snapshot differs from reference"; exit 1
fi
if ! grep -q "snapshots_skipped=1 " "$work/snapshot_stdout.txt"; then
  echo "FAIL: resume did not report the skipped snapshot"
  grep "^persist:" "$work/snapshot_stdout.txt" || true
  exit 1
fi
for counter in snapshot_loaded cache_image_verified; do
  if ! grep -q "\"name\":\"persist/$counter\",\"value\":1}" \
      "$dir/persist.trace.jsonl"; then
    echo "FAIL: resume did not report persist/$counter 1"
    grep "persist/$counter\"" "$dir/persist.trace.jsonl" || true
    exit 1
  fi
done
echo "   OK: clean exit, skipped snapshot reported, older image loaded and"
echo "       verified, report byte-identical"

echo "PASS: crash-recovery determinism checks"
