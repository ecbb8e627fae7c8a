#include "shard/router.h"

#include <optional>
#include <thread>
#include <utility>

#include "util/check.h"

namespace crowdtopk::shard {

ShardRouter::ShardRouter(const RouterOptions& options,
                         std::vector<std::unique_ptr<ShardBackend>> backends)
    : options_(options), backends_(std::move(backends)) {
  CROWDTOPK_CHECK(!backends_.empty());
  for (const std::unique_ptr<ShardBackend>& backend : backends_) {
    CROWDTOPK_CHECK(backend != nullptr);
  }
}

int64_t ShardRouter::healthy_shards() const {
  int64_t healthy = 0;
  for (const std::unique_ptr<ShardBackend>& backend : backends_) {
    if (!backend->dead()) ++healthy;
  }
  return healthy;
}

std::vector<RoutedOutcome> ShardRouter::RouteBatch(
    std::vector<RoutedQuery> queries) {
  struct Pending {
    size_t index = 0;          // position in `queries` / `outcomes`
    int64_t redispatches = 0;  // re-dispatches already consumed
  };

  const size_t n = queries.size();
  const int64_t shards = num_shards();
  std::vector<RoutedOutcome> outcomes(n);
  std::vector<Pending> pending(n);
  for (size_t i = 0; i < n; ++i) {
    outcomes[i].query = std::move(queries[i]);
    outcomes[i].result.global_id = outcomes[i].query.global_id;
    pending[i].index = i;
  }
  counters_.routed_queries += static_cast<int64_t>(n);

  while (!pending.empty()) {
    ++counters_.waves;
    // Group this wave's queries by their first healthy preferred shard.
    std::vector<std::vector<Pending>> groups(static_cast<size_t>(shards));
    std::vector<std::vector<RoutedQuery>> sub(static_cast<size_t>(shards));
    for (const Pending& p : pending) {
      const RoutedQuery& q = outcomes[p.index].query;
      const std::vector<int64_t> prefs =
          RankShards(PlacementKey{q.universe, q.dataset, q.algo}, shards);
      int64_t target = -1;
      for (const int64_t s : prefs) {
        if (!backends_[static_cast<size_t>(s)]->dead()) {
          target = s;
          break;
        }
      }
      if (target < 0) {
        // Every shard is dead; nothing left to fail over to.
        outcomes[p.index].redispatches = p.redispatches;
        outcomes[p.index].result.status = util::Status::ResourceExhausted(
            "no healthy shard remaining");
        ++counters_.exhausted_queries;
        continue;
      }
      groups[static_cast<size_t>(target)].push_back(p);
      sub[static_cast<size_t>(target)].push_back(q);
    }
    pending.clear();

    // Execute the non-empty sub-batches concurrently: the last one on this
    // thread, each other one on a thread of its own, so a wave with one
    // busy shard starts no thread. Results land in fixed slots, so no
    // synchronization beyond the joins is needed.
    std::vector<std::optional<util::StatusOr<ShardBatchResult>>> results(
        static_cast<size_t>(shards));
    const auto run = [this, &sub, &results](int64_t s) {
      results[static_cast<size_t>(s)].emplace(
          backends_[static_cast<size_t>(s)]->RunBatch(
              sub[static_cast<size_t>(s)]));
    };
    int64_t last = shards - 1;  // the last busy shard, or -1
    while (last >= 0 && sub[static_cast<size_t>(last)].empty()) --last;
    std::vector<std::thread> threads;
    for (int64_t s = 0; s < last; ++s) {
      if (!sub[static_cast<size_t>(s)].empty()) threads.emplace_back(run, s);
    }
    if (last >= 0) run(last);
    for (std::thread& t : threads) t.join();

    // Aggregate in ascending shard-id order — the canonical reduction
    // that keeps the merged outcome independent of thread timing.
    for (int64_t s = 0; s < shards; ++s) {
      const std::vector<Pending>& group = groups[static_cast<size_t>(s)];
      if (group.empty()) continue;
      ++counters_.shard_batches;
      const util::StatusOr<ShardBatchResult>& attempt =
          *results[static_cast<size_t>(s)];
      if (attempt.ok()) {
        const ShardBatchResult& batch = attempt.value();
        CROWDTOPK_CHECK(batch.results.size() == group.size());
        for (size_t j = 0; j < group.size(); ++j) {
          const Pending& p = group[j];
          outcomes[p.index].result = batch.results[j];
          outcomes[p.index].shard_id = s;
          outcomes[p.index].redispatches = p.redispatches;
          if (p.redispatches > 0) {
            counters_.repurchased_microtasks +=
                batch.results[j].total_microtasks;
          }
        }
        continue;
      }
      // The shard died; its whole sub-batch is lost. Queries with
      // re-dispatch budget left go back to pending for the next wave.
      ++counters_.shard_failures;
      for (const Pending& p : group) {
        if (p.redispatches + 1 > options_.max_redispatch) {
          outcomes[p.index].redispatches = p.redispatches;
          outcomes[p.index].result.status = util::Status::ResourceExhausted(
              "re-dispatch budget exhausted (" + attempt.status().message() +
              ")");
          ++counters_.exhausted_queries;
        } else {
          ++counters_.redispatched_queries;
          pending.push_back(Pending{p.index, p.redispatches + 1});
        }
      }
    }

    if (options_.cache_sync) SyncCaches();
  }
  return outcomes;
}

void ShardRouter::SyncCaches() {
  // Merge through a JudgmentCache so the gossiped set obeys the same
  // better-entry rule and capacity bound as any shard's own cache; the
  // merge is order-insensitive, but entries are restored in shard-id
  // order anyway so the restored-counter bookkeeping is reproducible.
  bool any = false;
  for (const std::unique_ptr<ShardBackend>& backend : backends_) {
    if (!backend->dead() && backend->SupportsCacheSync()) any = true;
  }
  if (!any) return;
  cache::JudgmentCache merged(options_.cache);
  for (const std::unique_ptr<ShardBackend>& backend : backends_) {
    if (backend->dead() || !backend->SupportsCacheSync()) continue;
    merged.RestoreEntries(backend->ExportCache());
  }
  std::vector<cache::ExportedEntry> entries = merged.Export();
  for (const std::unique_ptr<ShardBackend>& backend : backends_) {
    if (backend->dead() || !backend->SupportsCacheSync()) continue;
    backend->SetWarmCache(entries);
  }
  ++counters_.cache_sync_rounds;
  counters_.cache_entries_gossiped += static_cast<int64_t>(entries.size());
}

}  // namespace crowdtopk::shard
