// CacheClient: one query's handle onto the shared JudgmentCache.
//
// A client binds two things the shared cache cannot know by itself:
//
//   * the universe id, namespacing entries per underlying oracle so that
//     queries over different datasets never share verdicts;
//   * an optional local-to-universe item-id translation, so a query running
//     over a data::SubsetDataset (dense local ids) still shares judgments
//     with every other query over the same parent items.
//
// It reads the cache and never writes it: Record stages the query's
// completed comparisons in the client, and whoever owns the cache commits
// them with JudgmentCache::Commit(TakeStaged()) — the serving layer does so
// at its quiescence barriers (the one-writer contract in judgment_cache.h).
// The client also keeps this query's own hit/top-up/miss counters, which the
// serving layer exports as cache/* telemetry counters per query
// (docs/OBSERVABILITY.md) and sums into QueryService::cache_stats().
//
// While its query runs, a client is used only by that query's driver thread
// (like the platform it is attached to via
// crowd::CrowdPlatform::SetCacheClient); the cache's owner calls TakeStaged
// only while the driver is parked or finished.

#ifndef CROWDTOPK_CACHE_CACHE_CLIENT_H_
#define CROWDTOPK_CACHE_CACHE_CLIENT_H_

#include <cstdint>
#include <vector>

#include "cache/judgment_cache.h"
#include "crowd/types.h"

namespace crowdtopk::cache {

// Per-query cache traffic counters.
struct ClientStats {
  int64_t hits = 0;
  int64_t topups = 0;
  int64_t inferred = 0;
  int64_t misses = 0;
  int64_t seeded_samples = 0;  // cached samples restored into this query
};

class CacheClient {
 public:
  // `cache` must outlive the client. `universe_ids` maps this query's local
  // item ids onto the shared universe's ids (empty = identity); it is
  // copied, so a caller-side vector need not outlive the client.
  CacheClient(const JudgmentCache* cache, int64_t universe,
              std::vector<crowd::ItemId> universe_ids = {});

  CacheClient(const CacheClient&) = delete;
  CacheClient& operator=(const CacheClient&) = delete;

  // Lookup/Record in this query's LOCAL id space; translation and
  // canonical-pair orientation happen inside. Entries in and out are
  // oriented for (i, j) as passed. Record stages nothing for a
  // zero-capacity cache, which stores nothing.
  LookupResult Lookup(crowd::ItemId i, crowd::ItemId j, double alpha,
                      int64_t budget, JudgmentKind kind);
  void Record(crowd::ItemId i, crowd::ItemId j, JudgmentKind kind,
              const CachedComparison& entry);

  // Hands over the entries staged since the last call, in staging order
  // and canonical orientation.
  std::vector<ExportedEntry> TakeStaged();

  const ClientStats& stats() const { return stats_; }

 private:
  crowd::ItemId Translate(crowd::ItemId local) const;

  const JudgmentCache* cache_;
  int64_t universe_;
  std::vector<crowd::ItemId> universe_ids_;
  std::vector<ExportedEntry> staged_;
  ClientStats stats_;
};

}  // namespace crowdtopk::cache

#endif  // CROWDTOPK_CACHE_CACHE_CLIENT_H_
