// ShardBackend: one engine shard as the router sees it.
//
// A backend executes sub-batches of routed queries and reports per-query
// outcomes. Two implementations:
//
//   * LocalShardBackend (local_backend.h): one long-lived in-process
//     serve::QueryService — the "spawn K engines in one process"
//     deployment, and the only one the deterministic simulation drives.
//   * RemoteShardBackend (remote_backend.h): a net::Client against a
//     crowdtopk_router process — the scale-out deployment.
//
// Failure model: RunBatch either returns an outcome for every query of
// the sub-batch, or a non-OK status meaning the *shard* failed (process
// died, connection lost, injected fault). A failed shard loses the whole
// sub-batch — partial results are never surfaced — and stays dead for the
// rest of the run; the router re-dispatches the lost queries to survivors
// (router.h). Because every query's judgment and latency streams are
// keyed by its router-stamped global id under the constant master seed,
// the re-executed query buys the same microtasks and returns the same
// answer it would have produced on the dead shard.

#ifndef CROWDTOPK_SHARD_BACKEND_H_
#define CROWDTOPK_SHARD_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/judgment_cache.h"
#include "core/topk_algorithm.h"
#include "crowd/types.h"
#include "data/dataset.h"
#include "util/status.h"

namespace crowdtopk::shard {

// One query as the router dispatches it. Names travel to remote shards;
// the resolved dataset (owned by the router engine) and the algorithm
// instance are what a local shard executes.
struct RoutedQuery {
  // Router-assigned global id; stamped into serve::QueryRequest::seed_stream
  // (and the wire SubmitQuery) so the outcome is a pure function of
  // (master seed, global id) on whichever shard runs it.
  int64_t global_id = 0;
  std::string dataset;
  std::string algo;
  int64_t k = 10;
  double alpha = 0.02;
  int64_t budget = 0;  // <= 0 keeps the engine default
  // Placement-key universe; also the cache universe for local execution.
  int64_t universe = 0;
  // Resolved by the router engine for local backends; null for remote.
  // RouterEngine builds each query its own algorithm at Submit; other
  // producers may share one instance across queries, so it must be
  // concurrent_runs_safe().
  const data::Dataset* dataset_ptr = nullptr;
  std::shared_ptr<core::TopKAlgorithm> algorithm;
};

// Terminal outcome of one routed query, as reported by a shard. The
// first block is the contention-independent "pure" columns (a function of
// master seed + global id only); the second is timing, which depends on
// what else shared the shard's worker pool.
struct ShardQueryResult {
  int64_t global_id = 0;
  util::Status status;
  std::vector<crowd::ItemId> items;
  double precision_at_k = 0.0;
  int64_t total_microtasks = 0;
  int64_t rounds_private = 0;
  int64_t expired_assignments = 0;
  int64_t requeued_assignments = 0;

  int64_t rounds_observed = 0;
  double latency_seconds = 0.0;
  double queue_wait_seconds = 0.0;
};

struct ShardBatchResult {
  // One entry per routed query, dispatch order preserved.
  std::vector<ShardQueryResult> results;
  int64_t microtasks = 0;  // purchased in this sub-batch
};

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  // Executes one sub-batch to completion. Non-OK = the shard died and the
  // whole sub-batch is lost (see the failure model above); the backend
  // must report dead() from then on.
  virtual util::StatusOr<ShardBatchResult> RunBatch(
      const std::vector<RoutedQuery>& batch) = 0;

  virtual bool dead() const = 0;

  // Cross-shard cache exchange (router cache_sync). ExportCache returns
  // the shard's committed judgment-cache entries; SetWarmCache replaces
  // the shard's cache with `entries` before its next batch. Backends that
  // cannot participate (remote shards — cache state lives in the far
  // process) return false from SupportsCacheSync and empty exports.
  virtual bool SupportsCacheSync() const = 0;
  virtual std::vector<cache::ExportedEntry> ExportCache() const = 0;
  virtual void SetWarmCache(std::vector<cache::ExportedEntry> entries) = 0;

  // Cumulative counters for the merged report.
  virtual int64_t batches_run() const = 0;
  virtual int64_t queries_run() const = 0;
  virtual int64_t microtasks() const = 0;
};

}  // namespace crowdtopk::shard

#endif  // CROWDTOPK_SHARD_BACKEND_H_
