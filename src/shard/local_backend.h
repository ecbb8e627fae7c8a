// LocalShardBackend: an in-process engine shard.
//
// Replays each sub-batch through one serve::QueryService, kept for the
// shard's whole life, under the *constant* master seed, with every request
// stamped with its global query id (backend.h). Its one judgment cache
// carries judgments from batch to batch; under router cache_sync the
// router replaces it with the merged cross-shard export between batches.
//
// Deterministic failure injection: with fail_at_batch >= 1 the shard
// "dies" at the start of its fail_at_batch-th RunBatch (1-based), loses
// that sub-batch, and stays dead — the hook behind CROWDTOPK_SHARD_FAIL
// and the simulation's shard-kill chaos episodes.

#ifndef CROWDTOPK_SHARD_LOCAL_BACKEND_H_
#define CROWDTOPK_SHARD_LOCAL_BACKEND_H_

#include <cstdint>
#include <vector>

#include "serve/query_service.h"
#include "shard/backend.h"

namespace crowdtopk::shard {

class LocalShardBackend : public ShardBackend {
 public:
  struct Options {
    uint64_t seed = 20170514;  // master seed, shared by every shard
    serve::ScheduleOptions schedule;
    int64_t max_inflight = 16;
    int64_t jobs = 1;
    cache::CacheOptions cache;
    // Fault injection: die while executing the N-th batch (1-based);
    // <= 0 disables.
    int64_t fail_at_batch = -1;
  };

  explicit LocalShardBackend(const Options& options);

  util::StatusOr<ShardBatchResult> RunBatch(
      const std::vector<RoutedQuery>& batch) override;

  bool dead() const override { return dead_; }

  bool SupportsCacheSync() const override { return options_.cache.enabled; }
  std::vector<cache::ExportedEntry> ExportCache() const override {
    return service_.ExportCache();
  }
  void SetWarmCache(std::vector<cache::ExportedEntry> entries) override {
    service_.RestoreCache(entries);
  }

  int64_t batches_run() const override { return batches_run_; }
  int64_t queries_run() const override { return queries_run_; }
  int64_t microtasks() const override { return microtasks_; }

 private:
  const Options options_;
  serve::QueryService service_;
  bool dead_ = false;
  int64_t batches_run_ = 0;
  int64_t queries_run_ = 0;
  int64_t microtasks_ = 0;
};

}  // namespace crowdtopk::shard

#endif  // CROWDTOPK_SHARD_LOCAL_BACKEND_H_
