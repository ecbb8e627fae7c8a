// Tests for the sharded scale-out subsystem (src/shard,
// docs/SHARDING.md): placement hashing (determinism, rendezvous stability
// under resize), the router's shard-count / thread-count invariance of the
// merged pure-column table, bounded failover re-dispatch, the cache-sync
// alpha gate, agreement between a 1-shard router and a plain
// serve::QueryService fed the same stamped seed streams, and the router
// engine's bounded memory of finished queries.

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/heap_sort.h"
#include "baselines/quick_select.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "judgment/comparison.h"
#include "serve/query_service.h"
#include "shard/hash.h"
#include "shard/local_backend.h"
#include "shard/report.h"
#include "shard/router.h"
#include "shard/router_engine.h"
#include "util/status.h"

namespace crowdtopk::shard {
namespace {

constexpr uint64_t kSeed = 20170514;

// A small two-algorithm workload every router test shares. Algorithms are
// owned here; RoutedQuery carries raw pointers like the router engine does.
struct Workload {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<baselines::HeapSortTopK> heap;
  std::unique_ptr<baselines::QuickSelectTopK> quick;

  explicit Workload(double alpha = 0.05) {
    dataset = data::MakeUniformLadder(10, 1.0, 1.0);
    judgment::ComparisonOptions comparison;
    comparison.alpha = alpha;
    comparison.budget = 500;
    heap = std::make_unique<baselines::HeapSortTopK>(comparison);
    quick = std::make_unique<baselines::QuickSelectTopK>(comparison);
  }

  std::vector<RoutedQuery> Trace(int64_t queries, double alpha = 0.05) const {
    std::vector<RoutedQuery> trace(static_cast<size_t>(queries));
    for (int64_t q = 0; q < queries; ++q) {
      RoutedQuery& routed = trace[static_cast<size_t>(q)];
      routed.global_id = q;
      routed.dataset = "ladder";
      routed.algo = q % 2 == 0 ? "heapsort" : "quickselect";
      routed.k = 3;
      routed.alpha = alpha;
      routed.universe = 0;
      routed.dataset_ptr = dataset.get();
      routed.algorithm = q % 2 == 0
                             ? static_cast<core::TopKAlgorithm*>(heap.get())
                             : static_cast<core::TopKAlgorithm*>(quick.get());
    }
    return trace;
  }
};

LocalShardBackend::Options BackendOptions(int64_t jobs = 1) {
  LocalShardBackend::Options options;
  options.seed = kSeed;
  options.schedule.crowd_workers = 16;
  options.schedule.per_pair_batch = 4;
  options.max_inflight = 4;
  options.jobs = jobs;
  return options;
}

std::vector<std::unique_ptr<ShardBackend>> MakeShards(
    int64_t count, const LocalShardBackend::Options& options,
    int64_t fail_shard = -1, int64_t fail_at_batch = 1) {
  std::vector<std::unique_ptr<ShardBackend>> backends;
  for (int64_t s = 0; s < count; ++s) {
    LocalShardBackend::Options shard_options = options;
    if (s == fail_shard || fail_shard == -2) {
      shard_options.fail_at_batch = fail_at_batch;
    }
    backends.push_back(std::make_unique<LocalShardBackend>(shard_options));
  }
  return backends;
}

// ----- placement hashing ---------------------------------------------------

TEST(ShardHashTest, RankShardsIsDeterministicAndAPermutation) {
  for (const Policy policy : {Policy::kRendezvous, Policy::kModulo}) {
    for (int64_t shards = 1; shards <= 6; ++shards) {
      for (int64_t u = 0; u < 8; ++u) {
        const PlacementKey key{u, "ds" + std::to_string(u % 3),
                               u % 2 == 0 ? "spr" : "heapsort"};
        const std::vector<int64_t> a = RankShards(key, shards, policy);
        const std::vector<int64_t> b = RankShards(key, shards, policy);
        EXPECT_EQ(a, b) << "same inputs, different preference list";
        std::vector<int64_t> sorted = a;
        std::sort(sorted.begin(), sorted.end());
        std::vector<int64_t> want(static_cast<size_t>(shards));
        for (int64_t s = 0; s < shards; ++s) want[static_cast<size_t>(s)] = s;
        EXPECT_EQ(sorted, want) << "not a permutation of [0, " << shards
                                << ")";
      }
    }
  }
}

TEST(ShardHashTest, ModuloWalksFromThePrimary) {
  const PlacementKey key{3, "imdb", "spr"};
  const std::vector<int64_t> prefs = RankShards(key, 5, Policy::kModulo);
  ASSERT_EQ(prefs.size(), 5u);
  for (size_t i = 1; i < prefs.size(); ++i) {
    EXPECT_EQ(prefs[i], (prefs[0] + static_cast<int64_t>(i)) % 5);
  }
}

// The HRW stability contract: each shard's weight for a key is independent
// of the shard count, so adding shard K never reorders shards [0, K) — it
// can only insert itself somewhere. Removal is the mirror image, which is
// exactly the failover walk (skip the dead entry, order unchanged).
TEST(ShardHashTest, RendezvousIsStableUnderAddAndRemove) {
  int64_t moved = 0;
  constexpr int64_t kKeys = 64;
  for (int64_t u = 0; u < kKeys; ++u) {
    const PlacementKey key{u, "ds" + std::to_string(u), "spr"};
    const std::vector<int64_t> before =
        RankShards(key, 4, Policy::kRendezvous);
    const std::vector<int64_t> after =
        RankShards(key, 5, Policy::kRendezvous);
    // Restricted to the old shards, the order must be untouched.
    std::vector<int64_t> restricted;
    for (const int64_t s : after) {
      if (s < 4) restricted.push_back(s);
    }
    EXPECT_EQ(restricted, before) << "adding shard 4 reordered keys";
    if (after.front() != before.front()) {
      EXPECT_EQ(after.front(), 4) << "a moved key must move to the new shard";
      ++moved;
    }
  }
  // ~1/5 of keys move to the new shard; far fewer than a reshuffle. The
  // bound is loose (3x expectation) so the test never flakes on the fixed
  // fingerprints, while still failing for modulo-style near-total moves.
  EXPECT_LT(moved, kKeys * 3 / 5);
  EXPECT_GT(moved, 0) << "no key ever moves: the new shard would stay cold";
}

// ----- merged-table invariance ---------------------------------------------

TEST(ShardRouterTest, MergedTableIdenticalAcrossShardCountsAndPolicies) {
  const Workload workload;
  std::string reference;
  for (const int64_t shards : {1, 2, 4}) {
    for (const Policy policy : {Policy::kRendezvous, Policy::kModulo}) {
      RouterOptions options;
      options.policy = policy;
      ShardRouter router(options, MakeShards(shards, BackendOptions()));
      const std::vector<RoutedOutcome> outcomes =
          router.RouteBatch(workload.Trace(8));
      const std::string table = RenderMergedTable(outcomes);
      if (reference.empty()) {
        reference = table;
        continue;
      }
      EXPECT_EQ(table, reference)
          << "merged table depends on placement (shards=" << shards
          << ", policy=" << PolicyName(policy) << ")";
    }
  }
  EXPECT_NE(reference.find("gid,dataset,algo"), std::string::npos);
}

TEST(ShardRouterTest, MergedTableIdenticalAcrossJobs) {
  const Workload workload;
  RouterOptions options;
  ShardRouter narrow(options, MakeShards(3, BackendOptions(1)));
  ShardRouter wide(options, MakeShards(3, BackendOptions(8)));
  const std::string a = RenderMergedTable(narrow.RouteBatch(workload.Trace(8)));
  const std::string b = RenderMergedTable(wide.RouteBatch(workload.Trace(8)));
  EXPECT_EQ(a, b) << "per-shard jobs count leaked into the merged table";
}

// ----- failover ------------------------------------------------------------

TEST(ShardRouterTest, FailoverRedispatchesToSurvivorsByteIdentically) {
  const Workload workload;
  RouterOptions options;
  ShardRouter healthy(options, MakeShards(4, BackendOptions()));
  const std::string want =
      RenderMergedTable(healthy.RouteBatch(workload.Trace(8)));

  // Kill the first query's primary on its first sub-batch: its group is
  // lost in wave 1 and must complete on survivors in wave 2.
  const std::vector<RoutedQuery> trace = workload.Trace(8);
  const int64_t victim =
      RankShards(PlacementKey{trace[0].universe, trace[0].dataset,
                              trace[0].algo},
                 4, Policy::kRendezvous)
          .front();
  ShardRouter router(options, MakeShards(4, BackendOptions(), victim));
  const std::vector<RoutedOutcome> outcomes = router.RouteBatch(trace);

  EXPECT_EQ(RenderMergedTable(outcomes), want)
      << "failover changed the merged result table";
  const RouterCounters& counters = router.counters();
  EXPECT_GE(counters.shard_failures, 1);
  EXPECT_GE(counters.redispatched_queries, 1);
  EXPECT_EQ(counters.exhausted_queries, 0);
  EXPECT_EQ(router.healthy_shards(), 3);
  int64_t repurchased = 0;
  for (const RoutedOutcome& o : outcomes) {
    EXPECT_TRUE(o.result.status.ok()) << o.result.status.ToString();
    EXPECT_NE(o.shard_id, victim) << "dead shard reported a result";
    EXPECT_LE(o.redispatches, options.max_redispatch);
    if (o.redispatches > 0) repurchased += o.result.total_microtasks;
  }
  EXPECT_EQ(counters.repurchased_microtasks, repurchased)
      << "re-purchase trace counter does not match the outcomes";
}

TEST(ShardRouterTest, ExhaustedRedispatchBudgetFailsResourceExhausted) {
  const Workload workload;
  RouterOptions options;
  options.max_redispatch = 2;
  // Every shard dies on its first batch (fail_shard = -2 in MakeShards):
  // wave 1 kills the primaries, the re-dispatch waves kill the rest, and
  // each query must stop after its bounded budget instead of spinning.
  ShardRouter router(options, MakeShards(3, BackendOptions(), -2));
  const std::vector<RoutedOutcome> outcomes =
      router.RouteBatch(workload.Trace(6));
  EXPECT_EQ(router.healthy_shards(), 0);
  for (const RoutedOutcome& o : outcomes) {
    EXPECT_EQ(o.result.status.code(), util::StatusCode::kResourceExhausted)
        << o.result.status.ToString();
    EXPECT_EQ(o.shard_id, -1);
    EXPECT_LE(o.redispatches, options.max_redispatch);
  }
  const RouterCounters& counters = router.counters();
  EXPECT_EQ(counters.exhausted_queries, 6);
  EXPECT_LE(counters.redispatched_queries, 6 * options.max_redispatch);
}

// ----- cache sync ----------------------------------------------------------

// Runs `trace` on a single cached shard, optionally warm-started with
// `warm`, and returns the microtasks it purchased.
int64_t CachedRunMicrotasks(const std::vector<RoutedQuery>& trace,
                            const std::vector<cache::ExportedEntry>* warm,
                            std::vector<cache::ExportedEntry>* exported) {
  LocalShardBackend::Options options = BackendOptions();
  options.cache.enabled = true;
  LocalShardBackend backend(options);
  if (warm != nullptr) backend.SetWarmCache(*warm);
  const util::StatusOr<ShardBatchResult> result = backend.RunBatch(trace);
  EXPECT_TRUE(result.ok());
  if (exported != nullptr) *exported = backend.ExportCache();
  return result.value().microtasks;
}

// The alpha gate survives gossip. An entry arriving over RestoreEntries —
// the import path SyncCaches/SetWarmCache feeds — is held to exactly the
// local-lookup rule: a verdict decided at a looser alpha than the
// requester's is never served as a HIT (trusted without sampling); at most
// its bag seeds a top-up, after which the requester still buys until its
// own interval excludes 0. A covering (tighter) entry must hit, or the
// refusal branch would pass vacuously.
TEST(ShardCacheSyncTest, GossipedEntriesRespectTheAlphaGate) {
  cache::CacheOptions options;
  options.enabled = true;
  cache::JudgmentCache receiving(options);

  cache::ExportedEntry gossiped;
  gossiped.universe = 0;
  gossiped.kind = static_cast<int32_t>(cache::JudgmentKind::kPreference);
  gossiped.lo = 1;
  gossiped.hi = 2;
  gossiped.entry.outcome = crowd::ComparisonOutcome::kLeftWins;
  gossiped.entry.decisive = true;
  gossiped.entry.alpha = 0.2;
  gossiped.entry.count = 40;
  gossiped.entry.mean = 0.5;
  gossiped.entry.m2 = 1.0;
  receiving.RestoreEntries({gossiped});
  ASSERT_EQ(receiving.num_pairs(), 1);

  // Tighter requester (0.02 < 0.2): the cached confidence does not cover
  // it — the entry may only seed a top-up.
  const cache::LookupResult tight = receiving.Lookup(
      0, 1, 2, 0.02, 500, cache::JudgmentKind::kPreference);
  EXPECT_EQ(tight.status, cache::LookupStatus::kTopUp)
      << "a loose-alpha gossiped entry was served as a hit";

  // Looser requester (0.25 >= 0.2): covered, served outright.
  const cache::LookupResult covered = receiving.Lookup(
      0, 1, 2, 0.25, 500, cache::JudgmentKind::kPreference);
  EXPECT_EQ(covered.status, cache::LookupStatus::kHit)
      << "a covering gossiped entry never hits; the refusal test is vacuous";
}

// End-to-end flavour of the same gate through LocalShardBackend warm
// starts: loose-alpha exports seeding a tight trace may reduce purchases
// (top-up reuses real samples) but can never eliminate them, while tight
// exports serve a loose re-run of the pairs they decided as outright hits.
TEST(ShardCacheSyncTest, WarmStartTopsUpButNeverTrustsLooseVerdicts) {
  const Workload tight_workload(0.01);
  const Workload loose_workload(0.2);
  const std::vector<RoutedQuery> tight = tight_workload.Trace(2, 0.01);
  const std::vector<RoutedQuery> loose = loose_workload.Trace(2, 0.2);

  std::vector<cache::ExportedEntry> tight_entries;
  std::vector<cache::ExportedEntry> loose_entries;
  const int64_t tight_cold = CachedRunMicrotasks(tight, nullptr, &tight_entries);
  const int64_t loose_cold = CachedRunMicrotasks(loose, nullptr, &loose_entries);
  ASSERT_FALSE(tight_entries.empty());
  ASSERT_GT(tight_cold, 0);

  const int64_t tight_warmed_loose =
      CachedRunMicrotasks(tight, &loose_entries, nullptr);
  EXPECT_GT(tight_warmed_loose, 0)
      << "tight queries bought nothing over loose-alpha seeds — verdicts "
         "were trusted past the alpha gate";
  EXPECT_LE(tight_warmed_loose, tight_cold);

  const int64_t loose_warmed_tight =
      CachedRunMicrotasks(loose, &tight_entries, nullptr);
  EXPECT_LT(loose_warmed_tight, loose_cold)
      << "covering gossiped entries never served a hit";
}

TEST(ShardCacheSyncTest, RouterGossipKeepsCapacityBoundAndCounters) {
  const Workload workload;
  LocalShardBackend::Options backend_options = BackendOptions();
  backend_options.cache.enabled = true;
  backend_options.cache.capacity = 2;
  RouterOptions options;
  options.cache_sync = true;
  options.cache.enabled = true;
  options.cache.capacity = 2;
  ShardRouter router(options, MakeShards(3, backend_options));
  router.RouteBatch(workload.Trace(6));
  const RouterCounters& counters = router.counters();
  EXPECT_GE(counters.cache_sync_rounds, 1);
  // The merge vessel enforces the same capacity bound as any shard cache,
  // so one gossip round can never broadcast more distinct pairs than the
  // configured capacity.
  EXPECT_LE(counters.cache_entries_gossiped,
            counters.cache_sync_rounds * 2);
}

// ----- router vs plain serving stack ---------------------------------------

// A 1-shard router is the same machine as a plain QueryService fed stamped
// seed streams: pure columns must agree field-for-field.
TEST(ShardRouterTest, SingleShardMatchesPlainQueryService) {
  const Workload workload;
  const std::vector<RoutedQuery> trace = workload.Trace(6);

  RouterOptions options;
  ShardRouter router(options, MakeShards(1, BackendOptions()));
  const std::vector<RoutedOutcome> routed = router.RouteBatch(trace);

  serve::ServeOptions serve_options;
  serve_options.schedule = BackendOptions().schedule;
  serve_options.max_inflight = BackendOptions().max_inflight;
  serve_options.max_queue = -1;
  serve_options.seed = kSeed;
  std::vector<serve::QueryRequest> requests(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    requests[i].algorithm = trace[i].algorithm;
    requests[i].dataset = trace[i].dataset_ptr;
    requests[i].k = trace[i].k;
    requests[i].cache_universe = trace[i].universe;
    requests[i].seed_stream = trace[i].global_id;
  }
  serve::QueryService service(serve_options);
  const std::vector<serve::QueryOutcome> direct =
      service.Replay(requests, std::vector<double>(trace.size(), 0.0));

  ASSERT_EQ(routed.size(), direct.size());
  for (size_t i = 0; i < routed.size(); ++i) {
    const ShardQueryResult& r = routed[i].result;
    const serve::QueryOutcome& d = direct[i];
    EXPECT_EQ(r.status.code(), d.status.code()) << "query " << i;
    EXPECT_EQ(r.items, d.items) << "query " << i;
    EXPECT_EQ(r.precision_at_k, d.precision_at_k) << "query " << i;
    EXPECT_EQ(r.total_microtasks, d.total_microtasks) << "query " << i;
    EXPECT_EQ(r.rounds_private, d.rounds_private) << "query " << i;
    EXPECT_EQ(r.expired_assignments, d.expired_assignments) << "query " << i;
    EXPECT_EQ(r.requeued_assignments, d.requeued_assignments) << "query " << i;
  }
}

// ----- router engine --------------------------------------------------------

// The engine serves for as long as its process runs, so it remembers only
// the last 4096 finished queries: older ids read kUnknown and drop out of
// the merged table. The last query carries a client stamp, which keys its
// row in place of the wire id.
TEST(RouterEngineTest, RemembersOnlyTheLast4096Queries) {
  net::ServerOptions options;
  options.seed = kSeed;
  options.max_queue = -1;
  options.dataset_factory = [](const std::string&, uint64_t) {
    return std::unique_ptr<data::Dataset>(data::MakeUniformLadder(3, 2.0, 0.5));
  };
  RouterEngine engine(options, RouterEngineConfig(), [] {});

  constexpr int64_t kQueries = 4100;
  net::SubmitQuery spec;
  spec.dataset = "ladder";
  spec.k = 1;
  spec.algo = "heapsort";
  for (int64_t q = 0; q < kQueries; ++q) {
    if (q == kQueries - 1) spec.seed_stream = 1000000;
    ASSERT_TRUE(engine.Submit(/*conn_id=*/0, spec).ok());
  }
  size_t completed = 0;
  while (completed < kQueries) {
    const size_t taken = engine.TakeCompletions().size();
    if (taken == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    completed += taken;
  }

  EXPECT_EQ(engine.State(kQueries - 4097), net::QueryState::kUnknown);
  EXPECT_EQ(engine.State(kQueries - 4096), net::QueryState::kDone);
  EXPECT_EQ(engine.State(kQueries - 1), net::QueryState::kDone);
  const std::string report = engine.MergedReport();
  const std::string table = report.substr(report.find("gid,"));
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 4096 + 1);
  EXPECT_EQ(table.substr(table.rfind('\n', table.size() - 2) + 1, 8),
            "1000000,");
}

}  // namespace
}  // namespace crowdtopk::shard
