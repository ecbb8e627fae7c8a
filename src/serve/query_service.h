// QueryService: the online multi-query serving engine.
//
// The paper answers one top-k query at a time against a private crowd; the
// serving layer answers *many* (ROADMAP north star: heavy traffic). A
// replay takes an open-loop arrival trace (serve/arrival.h) and a request
// per arrival (algorithm x dataset x k); each admitted query runs the
// unmodified synchronous algorithm on its own driver thread against a plain
// crowd::CrowdPlatform whose latency model is the query's
// BatchScheduler::Query record, while the shared BatchScheduler multiplexes
// everyone's microtasks onto W crowd worker slots per round. Admission is FIFO with a
// bounded in-flight window (max_inflight) and an optional queue bound
// (max_queue; overflow arrivals are rejected with kResourceExhausted), so
// queueing delay — time from arrival to admission — is part of the measured
// latency, exactly like a real serving system.
//
// Determinism contract (same as src/exec): one (options, seed, trace) is
// one bit-identical set of outcomes and one bit-identical rendered report
// (serve/report.h) for every CROWDTOPK_JOBS worker count, because
//   1. each query's judgments flow from its own SplitSeed stream,
//   2. worker latencies are pure functions of assignment identity,
//   3. global rounds close only at driver quiescence, and
//   4. outcomes are reduced in query-id order.
//
// With a trace directory set, every query dumps its own telemetry trace
// (serve_q<id>_<algo>.trace.jsonl + .phases.csv, see docs/OBSERVABILITY.md)
// with serve/* counters for expired/requeued/failed assignments appended.

#ifndef CROWDTOPK_SERVE_QUERY_SERVICE_H_
#define CROWDTOPK_SERVE_QUERY_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_client.h"
#include "cache/judgment_cache.h"
#include "core/topk_algorithm.h"
#include "data/dataset.h"
#include "persist/manager.h"
#include "serve/batch_scheduler.h"
#include "util/status.h"

namespace crowdtopk::serve {

struct ServeOptions {
  ScheduleOptions schedule;
  // Maximum queries whose drivers run concurrently; later arrivals wait in
  // the admission queue.
  int64_t max_inflight = 16;
  // Admission-queue bound; arrivals past it are rejected. < 0 = unbounded.
  int64_t max_queue = -1;
  // Threads simulating each round's assignment wave (exec::ThreadPool):
  // 1 = inline serial path, 0 = hardware concurrency. Never changes
  // results, only wall-clock time.
  int64_t jobs = 1;
  // Master seed: judgment streams, worker latencies (arrival traces are
  // generated by the caller, typically from the same seed).
  uint64_t seed = 20170514;
  // Non-empty: write per-query telemetry traces into this directory.
  std::string trace_dir;
  // Cross-query judgment cache (src/cache). When cache.enabled, the service
  // owns one shared JudgmentCache; drivers look pairs up before buying and
  // stage completed comparisons in their query's CacheClient. The service
  // thread commits the staged inserts only at the scheduler's quiescence
  // barriers, in query-id order, preserving the bit-identical-for-any-jobs
  // contract.
  cache::CacheOptions cache;
  // Durable-state subsystem (src/persist): with persist.dir set, the
  // replay appends a WAL barrier record at every quiescence barrier and
  // snapshots on a cadence; with persist.resume it recovers the directory
  // and re-executes the already-durable prefix as verified catch-up, so a
  // killed replay resumed from disk produces byte-identical outcomes,
  // report, and traces. Empty dir = subsystem off.
  persist::PersistOptions persist;
};

struct QueryRequest {
  // Must be non-null and concurrent_runs_safe(): one instance may serve
  // many in-flight queries at once. Not owned.
  core::TopKAlgorithm* algorithm = nullptr;
  // Oracle + ground truth (for the report's precision column). Not owned.
  const data::Dataset* dataset = nullptr;
  int64_t k = 10;
  // Cache namespace. Queries share cached judgments only within one
  // universe. < 0 (default): the service assigns one universe per distinct
  // `dataset` pointer, in first-seen request order — right whenever equal
  // pointers mean equal oracles. Set explicitly when different Dataset
  // objects expose the same underlying items (e.g. subsets of one parent).
  int64_t cache_universe = -1;
  // Local-to-universe item-id translation (empty = identity): entry [i] is
  // the universe id of this query's local item i. For a
  // data::SubsetDataset, pass its parent_ids() so overlapping subset
  // queries share judgments in parent-id space.
  std::vector<crowd::ItemId> cache_item_ids;
  // Seed-stream override. By default (< 0) a query's judgment and
  // worker-latency streams key off its local replay index, which makes two
  // replays of the same trace identical but ties outcomes to the query's
  // position. A shard router (src/shard) instead stamps every request with
  // its *global* query id so the per-query outcome is a pure function of
  // (master seed, global id) — independent of which shard, batch, or local
  // slot the query lands in.
  int64_t seed_stream = -1;
};

struct QueryOutcome {
  int64_t query_id = 0;
  std::string algorithm;
  // Ok, or kResourceExhausted: admission rejection (`rejected` set) or an
  // assignment that expired max_attempts times.
  util::Status status;
  bool rejected = false;

  double arrival_seconds = 0.0;
  double start_seconds = 0.0;   // admission time (start - arrival = queue wait)
  double finish_seconds = 0.0;
  double latency_seconds = 0.0;  // finish - arrival

  int64_t rounds_observed = 0;  // global rounds from admission to finish
  int64_t rounds_private = 0;   // rounds the query alone would have counted

  int64_t total_microtasks = 0;
  int64_t expired_assignments = 0;
  int64_t requeued_assignments = 0;

  double precision_at_k = 0.0;
  std::vector<crowd::ItemId> items;

  // Cross-query cache traffic (all zero when the cache is disabled).
  int64_t cache_hits = 0;
  int64_t cache_topups = 0;
  int64_t cache_inferred = 0;
  int64_t cache_misses = 0;
  int64_t cache_seeded_samples = 0;
};

class QueryService {
 public:
  explicit QueryService(const ServeOptions& options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Replays the trace to completion: requests[i] arrives at arrivals[i]
  // (ascending, simulated seconds). Returns one outcome per request, in
  // trace order. Each call gets a fresh scheduler, so it returns what a
  // fresh service holding the same cache would. A repeat call needs
  // persistence and traces off (both keyed by local query ids) and every
  // cache_universe set (implicit ones are numbered per call and alias).
  std::vector<QueryOutcome> Replay(const std::vector<QueryRequest>& requests,
                                   const std::vector<double>& arrivals);

  // Aggregates over the last Replay call.
  AssignmentStats assignment_stats() const { return assignment_stats_; }
  double makespan_seconds() const { return makespan_seconds_; }
  int64_t total_rounds() const { return total_rounds_; }

  // Shared-cache aggregates since the cache was built or last restored
  // (all zero when the cache is disabled). The lookup counters are summed
  // from the per-query clients of finished queries.
  cache::CacheStats cache_stats() const;

  // Committed cache entries (empty when the cache is disabled).
  std::vector<cache::ExportedEntry> ExportCache() const;

  // Replaces the cache with a fresh one holding `entries` (counted as
  // restored): a --warm snapshot image or a shard router's gossiped set.
  // No-op when the cache is disabled; call between Replay calls only.
  void RestoreCache(const std::vector<cache::ExportedEntry>& entries);

  // Durability outcome of the replay. Ok when persistence is off or
  // healthy; a resume refused (configuration fingerprint mismatch) or a
  // write failure surfaces here — the replay itself still completes, it
  // just ran without (full) durability.
  const util::Status& persist_status() const { return persist_status_; }
  // Writer/recovery counters; all zero when persistence is off.
  persist::PersistCounters persist_counters() const;
  // Microtasks regenerated during verified catch-up — crowd work the
  // resumed run replayed from durable records instead of re-purchasing.
  int64_t replayed_microtasks() const { return replayed_microtasks_; }

 private:
  // `client` is the query's cache client, or null without a cache.
  void DriverMain(int64_t query_id, BatchScheduler::Query* query,
                  cache::CacheClient* client);
  void DumpQueryTrace(const telemetry::TraceRecorder& recorder,
                      const QueryRequest& request, int64_t query_id) const;
  // Writes persist/* (and cache restoration) counters to
  // <persist.dir>/persist.trace.jsonl — deliberately not into the
  // per-query traces, which must stay byte-identical across interrupted
  // and uninterrupted runs.
  void WritePersistTrace() const;
  // Quiescence barrier: commits the staged cache inserts, then hashes them
  // and the `finished` queries' completes (query-id order) into the
  // persist digest and seals the barrier. Returns the barrier's status.
  util::Status SealBarrier(const std::vector<int64_t>& finished,
                           int64_t next_arrival, int64_t done);
  // Records the first persistence failure and prints it.
  void KeepPersistError(const util::Status& status);

  ServeOptions options_;
  uint64_t judgment_seed_;
  bool replayed_ = false;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::unique_ptr<cache::JudgmentCache> cache_;
  // Clients of admitted, unretired queries by query id. Only the service
  // thread touches the map; each driver holds a raw pointer to its client.
  std::map<int64_t, std::unique_ptr<cache::CacheClient>> clients_;
  // Lookup counts of retired clients since the cache was built or restored.
  cache::ClientStats retired_;

  // Replay-scoped state shared with driver threads.
  const std::vector<QueryRequest>* requests_ = nullptr;
  std::vector<QueryOutcome> outcomes_;
  std::unique_ptr<BatchScheduler> scheduler_;
  std::vector<int64_t> universes_;  // resolved cache universe per query
  std::unique_ptr<persist::PersistenceManager> persist_;
  util::Status persist_status_;
  int64_t replayed_microtasks_ = 0;

  AssignmentStats assignment_stats_;
  double makespan_seconds_ = 0.0;
  int64_t total_rounds_ = 0;
};

}  // namespace crowdtopk::serve

#endif  // CROWDTOPK_SERVE_QUERY_SERVICE_H_
