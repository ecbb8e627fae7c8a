// Environment-variable options for the benchmark harnesses.
//
// Benches run with no command-line arguments (so `for b in build/bench/*; do
// $b; done` works); knobs such as the number of repetitions are read from
// CROWDTOPK_* environment variables with sensible defaults.

#ifndef CROWDTOPK_UTIL_ENV_H_
#define CROWDTOPK_UTIL_ENV_H_

#include <cstdint>
#include <string>
#include <vector>

namespace crowdtopk::util {

// Reads an integer env var. Returns `fallback` if unset, empty, or not a
// valid integer; a value with trailing garbage ("4x") is rejected as a
// whole (trailing whitespace is fine) and warns once per variable name on
// stderr, so typos in knobs like CROWDTOPK_JOBS=4x do not silently parse
// as 4.
int64_t GetEnvInt64(const std::string& name, int64_t fallback);

// Reads a double env var; same strict-parse + warn-once contract as
// GetEnvInt64.
double GetEnvDouble(const std::string& name, double fallback);

// Reads a string env var; returns `fallback` if unset.
std::string GetEnvString(const std::string& name, const std::string& fallback);

// Splits a comma-separated list value ("spr, heapsort,") into its
// non-empty fields; spaces are dropped everywhere.
std::vector<std::string> SplitCsv(const std::string& list);

// Reads a boolean env var. Unset/empty returns `fallback`; "0", "false",
// "off", "no" (case-insensitive) are false; everything else is true.
bool GetEnvBool(const std::string& name, bool fallback);

// Number of Monte-Carlo repetitions per experiment point. The paper averages
// over 100 runs; the default here is smaller so every bench finishes quickly
// on a single core. Override with CROWDTOPK_RUNS.
int64_t BenchRuns(int64_t fallback = 5);

// Master seed for benches; override with CROWDTOPK_SEED.
uint64_t BenchSeed(uint64_t fallback = 20170514);  // SIGMOD'17 opening day.

// Worker threads for the parallel experiment engine (exec/run_engine.h).
// CROWDTOPK_JOBS; 1 runs everything inline on the calling thread (the
// legacy serial path), 0/unset means hardware concurrency. Results are
// bit-identical for every value (per-run SplitSeed streams + canonical-
// order reduction); the knob only changes wall-clock time.
int64_t BenchJobs();

// JSONL run-registry path (CROWDTOPK_REGISTRY). When set, every completed
// (experiment, point, run) record is appended there and already-recorded
// runs are skipped on the next invocation, so an interrupted sweep resumes
// where it stopped. Empty (the default) disables the registry.
std::string RegistryPath();

// CROWDTOPK_PROGRESS=1 makes the engine report runs/points completed on
// stderr while a sweep is executing.
bool ProgressEnabled();

// CROWDTOPK_TRACE=1 makes the bench harness attach a telemetry recorder to
// every traced run and dump machine-readable traces (JSONL + per-phase CSV)
// next to the bench output. See docs/OBSERVABILITY.md.
bool TraceEnabled();

// Directory trace files are written to (CROWDTOPK_TRACE_DIR, default ".").
std::string TraceDir();

// By default only the first run of every experiment point is traced, to
// bound file counts; CROWDTOPK_TRACE_ALL_RUNS=1 traces every repetition.
bool TraceAllRuns();

// Short name of the running binary (/proc/self/comm), used to label trace
// files; "bench" when unavailable.
std::string ProgramName();

// CROWDTOPK_CACHE=1 enables the cross-query judgment cache (src/cache) in
// tools and benches that support it. Off by default: the cache trades
// statistical independence between queries for cost, so reuse is opt-in.
bool CacheEnabled();

// Maximum distinct pairs the judgment cache stores (CROWDTOPK_CACHE_CAPACITY,
// default -1 = unbounded; 0 stores nothing, making an enabled cache
// byte-identical to a disabled one).
int64_t CacheCapacity();

// CROWDTOPK_CACHE_TRANSITIVITY=1 additionally serves single-hop transitively
// composed verdicts (see src/cache/judgment_cache.h for the union-bound
// confidence composition rule). Off by default.
bool CacheTransitivity();

// ----- durable-state knobs (src/persist, docs/PERSISTENCE.md) -----------

// Directory snapshots and the write-ahead log are kept in
// (CROWDTOPK_PERSIST_DIR). Empty (the default) disables persistence.
std::string PersistDir();

// Minimum quiescence barriers between periodic snapshots
// (CROWDTOPK_SNAPSHOT_EVERY, default 8); a snapshot also waits until the
// judgment cache has doubled. <= 0 writes only the final completion
// snapshot.
int64_t SnapshotEvery();

// CROWDTOPK_WAL_FSYNC (default 1) forces every barrier's WAL append to
// stable storage with fdatasync before the barrier is acknowledged; =0
// trades durability of the last few barriers for speed.
bool WalFsync();

// WAL segment rotation threshold in bytes (CROWDTOPK_WAL_SEGMENT_BYTES,
// default 1 MiB; crowdtopk_serve refuses values < 1). Mostly a test knob:
// tiny values force multi-segment logs.
int64_t WalSegmentBytes();

// Crash-injection point (CROWDTOPK_PERSIST_KILL_BARRIER, default -1 = off):
// the serving layer calls _Exit(137) immediately after making barrier N
// durable, simulating a hard kill for the recovery CI jobs.
int64_t PersistKillBarrier();

// ----- network front-end knobs (src/net, docs/NETWORK.md) ----------------

// TCP port the server binds on 127.0.0.1 (CROWDTOPK_NET_PORT, default 0 =
// kernel-assigned ephemeral port, so concurrent test runs never collide on
// a fixed port or a TIME_WAIT leftover). The CLI prints the bound port
// either way, which is what the smoke scripts parse; clients (the loadgen)
// must be pointed at that printed port explicitly.
int64_t NetPort();

// Connection bound (CROWDTOPK_NET_MAX_CONNS, default 64): connections past
// it are greeted with an UNAVAILABLE error frame and closed.
int64_t NetMaxConns();

// Idle/read timeout in milliseconds (CROWDTOPK_NET_IDLE_TIMEOUT_MS,
// default 60000): a connection with no traffic and no in-flight queries
// for this long is closed. <= 0 disables the timeout.
int64_t NetIdleTimeoutMs();

// Graceful-drain budget in milliseconds (CROWDTOPK_NET_DRAIN_TIMEOUT_MS,
// default 30000): on SIGTERM the server finishes in-flight queries and
// flushes replies for at most this long before exiting anyway.
int64_t NetDrainTimeoutMs();

// ----- sharded scale-out knobs (src/shard, docs/SHARDING.md) --------------

// Engine shards behind the router (CROWDTOPK_SHARDS, default 1; values < 1
// are clamped to 1). For a fixed master seed the merged per-query result
// table is byte-identical for every shard count.
int64_t ShardCount();

// CROWDTOPK_SHARD_CACHE_SYNC=1 turns on the barrier-aligned cross-shard
// judgment-cache exchange (only meaningful with CROWDTOPK_CACHE=1).
bool ShardCacheSync();

// Bounded failover: how many times one query may be re-dispatched to a
// surviving shard after its shard died (CROWDTOPK_SHARD_REDISPATCH,
// default 2) before it fails with kResourceExhausted.
int64_t ShardRedispatch();

// Deterministic failure injection for the failover smoke/chaos paths
// (CROWDTOPK_SHARD_FAIL, default -1 = off): the shard with this id dies
// while executing its CROWDTOPK_SHARD_FAIL_AFTER-th batch (default 1),
// losing the sub-batch, and stays dead for the rest of the run.
int64_t ShardFail();
int64_t ShardFailAfterBatches();

namespace internal {
// Total strict-parse warnings emitted so far by GetEnvInt64/GetEnvDouble.
// Exposed so tests can assert the warn-once-per-variable contract without
// scraping stderr.
int64_t EnvWarningCountForTest();

// Clears the once-per-variable registry (not the counter above), so the
// next bad parse of any variable warns again. Tests that assert "warns
// exactly once" call this first; without it their outcome would depend on
// which earlier test happened to touch the same variable.
void ResetEnvWarningsForTest();
}  // namespace internal

}  // namespace crowdtopk::util

#endif  // CROWDTOPK_UTIL_ENV_H_
