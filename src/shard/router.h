// ShardRouter: deterministic scatter of query batches over K shards.
//
// Routing: every query hashes to a preference list of shards
// (shard/hash.h); the router dispatches it to the first *healthy* entry.
// Each routing wave groups the pending queries by target shard, executes
// the per-shard sub-batches concurrently (the last busy shard's on the
// calling thread, each other's on a thread of its own), and aggregates in
// ascending shard-id order — so the merged outcome is independent of
// thread interleaving.
//
// Failover: a shard whose RunBatch fails is dead for the rest of the run;
// its whole sub-batch is re-dispatched down each query's preference list
// in the next wave. A query survives at most max_redispatch re-dispatches
// before it fails with kResourceExhausted — the bounded re-purchase
// contract: crowd work lost with a dead shard is bought again at most
// max_redispatch times, and the counters below account for every repeat
// microtask. Because outcomes are pure functions of (master seed, global
// id), a re-dispatched query returns byte-identical results on the
// survivor.
//
// Cache sync (optional): after each wave the router collects every
// healthy shard's committed judgment-cache export (entries that were
// themselves committed at quiescence barriers in query-id order), merges
// them through a JudgmentCache — whose better-entry rule makes the merge
// order-insensitive and whose capacity bound still applies — and gossips
// the merged set back, replacing every shard's cache. Entries never
// bypass the alpha gate: a receiving query still only *hits* on an
// imported entry whose cached alpha covers its own, identical to a local
// cache hit (docs/SHARDING.md discusses soundness).

#ifndef CROWDTOPK_SHARD_ROUTER_H_
#define CROWDTOPK_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/judgment_cache.h"
#include "shard/backend.h"
#include "shard/hash.h"
#include "util/status.h"

namespace crowdtopk::shard {

struct RouterOptions {
  // Re-dispatches allowed per query after shard deaths; exceeding it
  // fails the query with kResourceExhausted.
  int64_t max_redispatch = 2;
  // Barrier-aligned cross-shard cache exchange; only effective when the
  // backends support it (local shards with an enabled cache).
  bool cache_sync = false;
  // Cache geometry for the merge vessel (capacity bound applies to the
  // gossiped set too); used only when cache_sync is on.
  cache::CacheOptions cache;
};

// Monotone counters, exported as shard/* telemetry by the router engine.
struct RouterCounters {
  int64_t routed_queries = 0;       // queries dispatched at least once
  int64_t waves = 0;                // routing waves executed
  int64_t shard_batches = 0;        // per-shard sub-batches attempted
  int64_t shard_failures = 0;       // RunBatch failures observed
  int64_t redispatched_queries = 0; // re-dispatches performed (query-level)
  int64_t repurchased_microtasks = 0; // microtasks bought for re-dispatched
                                      // queries on surviving shards
  int64_t exhausted_queries = 0;    // failed after max_redispatch
  int64_t cache_sync_rounds = 0;
  int64_t cache_entries_gossiped = 0;
};

// Outcome of one routed query: the shard result plus routing metadata.
struct RoutedOutcome {
  RoutedQuery query;
  ShardQueryResult result;
  int64_t shard_id = -1;    // executing shard; -1 = never executed
  int64_t redispatches = 0; // times this query was re-dispatched
};

class ShardRouter {
 public:
  // `backends[i]` is shard i; at least one.
  ShardRouter(const RouterOptions& options,
              std::vector<std::unique_ptr<ShardBackend>> backends);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Routes one batch of queries to completion (including failover waves);
  // returns outcomes in input order.
  std::vector<RoutedOutcome> RouteBatch(std::vector<RoutedQuery> queries);

  int64_t num_shards() const { return static_cast<int64_t>(backends_.size()); }
  int64_t healthy_shards() const;
  const RouterCounters& counters() const { return counters_; }
  const ShardBackend& backend(int64_t shard) const {
    return *backends_[static_cast<size_t>(shard)];
  }

 private:
  // Gossip committed cache entries among healthy, sync-capable shards.
  void SyncCaches();

  const RouterOptions options_;
  std::vector<std::unique_ptr<ShardBackend>> backends_;
  RouterCounters counters_;
};

}  // namespace crowdtopk::shard

#endif  // CROWDTOPK_SHARD_ROUTER_H_
