// Tests for the sharded scale-out subsystem (src/shard,
// docs/SHARDING.md): placement hashing (determinism, rendezvous stability
// under resize), the router's shard-count / thread-count invariance of the
// merged pure-column table, bounded failover re-dispatch, the cache-sync
// alpha gate and replace semantics, agreement between a 1-shard router and
// a plain serve::QueryService fed the same stamped seed streams, a
// long-lived local shard against a fresh service per batch, the threads the
// scatter runs shards on, the merged table's long rows, and the router
// engine's bounded memory of finished queries and algorithm instances.

#include <algorithm>
#include <atomic>
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
#include "persist/format.h"
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

// A small two-algorithm workload every router test shares. The dataset is
// owned here; every query of a trace shares one of two algorithm instances.
struct Workload {
  std::unique_ptr<data::Dataset> dataset;
  std::shared_ptr<core::TopKAlgorithm> heap;
  std::shared_ptr<core::TopKAlgorithm> quick;

  explicit Workload(double alpha = 0.05) {
    dataset = data::MakeUniformLadder(10, 1.0, 1.0);
    judgment::ComparisonOptions comparison;
    comparison.alpha = alpha;
    comparison.budget = 500;
    heap = std::make_shared<baselines::HeapSortTopK>(comparison);
    quick = std::make_shared<baselines::QuickSelectTopK>(comparison);
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
      routed.algorithm = q % 2 == 0 ? heap : quick;
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

// Byte image of a cache export, for exact comparison.
std::string CacheImage(const std::vector<cache::ExportedEntry>& entries) {
  persist::Encoder enc;
  for (const cache::ExportedEntry& e : entries) {
    persist::EncodeCacheEntry(e, &enc);
  }
  return enc.Take();
}

// ----- placement hashing ---------------------------------------------------

TEST(ShardHashTest, RankShardsIsDeterministicAndAPermutation) {
  for (int64_t shards = 1; shards <= 6; ++shards) {
    for (int64_t u = 0; u < 8; ++u) {
      const PlacementKey key{u, "ds" + std::to_string(u % 3),
                             u % 2 == 0 ? "spr" : "heapsort"};
      const std::vector<int64_t> a = RankShards(key, shards);
      const std::vector<int64_t> b = RankShards(key, shards);
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

// The HRW stability contract: each shard's weight for a key is independent
// of the shard count, so adding shard K never reorders shards [0, K) — it
// can only insert itself somewhere. Removal is the mirror image, which is
// exactly the failover walk (skip the dead entry, order unchanged).
TEST(ShardHashTest, RendezvousIsStableUnderAddAndRemove) {
  int64_t moved = 0;
  constexpr int64_t kKeys = 64;
  for (int64_t u = 0; u < kKeys; ++u) {
    const PlacementKey key{u, "ds" + std::to_string(u), "spr"};
    const std::vector<int64_t> before = RankShards(key, 4);
    const std::vector<int64_t> after = RankShards(key, 5);
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
  // fingerprints, while still failing for a near-total reshuffle.
  EXPECT_LT(moved, kKeys * 3 / 5);
  EXPECT_GT(moved, 0) << "no key ever moves: the new shard would stay cold";
}

// ----- merged-table invariance ---------------------------------------------

TEST(ShardRouterTest, MergedTableIdenticalAcrossShardCounts) {
  const Workload workload;
  std::string reference;
  for (const int64_t shards : {1, 2, 4}) {
    ShardRouter router(RouterOptions(), MakeShards(shards, BackendOptions()));
    const std::vector<RoutedOutcome> outcomes =
        router.RouteBatch(workload.Trace(8));
    const std::string table = RenderMergedTable(outcomes);
    if (reference.empty()) {
      reference = table;
      continue;
    }
    EXPECT_EQ(table, reference)
        << "merged table depends on placement (shards=" << shards << ")";
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

// A row lists every item and ends its line however long it gets: 300
// five-digit items make a row of about 1,800 bytes.
TEST(ShardRouterTest, MergedTableRowsAreNeverCut) {
  RoutedOutcome outcome;
  outcome.query.global_id = 7;
  outcome.query.dataset = "imdb";
  outcome.query.algo = "spr";
  outcome.query.k = 300;
  std::string items;
  for (crowd::ItemId i = 10000; i < 10300; ++i) {
    outcome.result.items.push_back(i);
    items += (items.empty() ? "" : ";") + std::to_string(i);
  }
  const std::string table = RenderMergedTable({outcome});
  EXPECT_EQ(table.substr(table.find('\n') + 1),
            "7,imdb,spr,300,OK,0,0,0,0,0.0000," + items + "\n");
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
                 4)
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
  // Three cache universes over one ladder spread the queries, and with
  // them distinct cached pairs, over more than one shard.
  std::vector<RoutedQuery> trace = workload.Trace(6);
  for (size_t q = 0; q < trace.size(); ++q) {
    trace[q].universe = static_cast<int64_t>(q / 2);
  }
  ShardRouter router(options, MakeShards(3, backend_options));
  router.RouteBatch(trace);
  const RouterCounters& counters = router.counters();
  EXPECT_GE(counters.cache_sync_rounds, 1);
  // The merge vessel enforces the same capacity bound as any shard cache,
  // so one gossip round can never broadcast more distinct pairs than the
  // configured capacity.
  EXPECT_LE(counters.cache_entries_gossiped,
            counters.cache_sync_rounds * 2);

  // Gossip replaces each shard's cache: after the one wave every healthy
  // shard holds exactly the capacity-bounded merge of what the shards held
  // before it, which an unsynced router over the same trace exposes.
  // Merging into a shard's live (full) cache would keep its own pairs.
  RouterOptions unsynced = options;
  unsynced.cache_sync = false;
  ShardRouter plain(unsynced, MakeShards(3, backend_options));
  plain.RouteBatch(trace);
  cache::JudgmentCache merged(options.cache);
  int64_t shards_with_entries = 0;
  for (int64_t s = 0; s < plain.num_shards(); ++s) {
    const std::vector<cache::ExportedEntry> own =
        plain.backend(s).ExportCache();
    if (!own.empty()) ++shards_with_entries;
    merged.RestoreEntries(own);
  }
  ASSERT_GE(shards_with_entries, 2) << "one shard ran everything: vacuous";
  const std::string expected = CacheImage(merged.Export());
  for (int64_t s = 0; s < router.num_shards(); ++s) {
    SCOPED_TRACE(s);
    ASSERT_FALSE(router.backend(s).dead());
    EXPECT_EQ(CacheImage(router.backend(s).ExportCache()), expected);
  }
}

// ----- long-lived local shard -----------------------------------------------

// A shard keeps one QueryService for its whole life. Its per-batch results
// equal the per-batch rebuild it replaces: a fresh service per batch,
// restored from the previous batch's export or, after a gossip, from the
// warm set — every field, timing included.
TEST(LocalShardBackendTest, OneServiceMatchesAFreshServicePerBatch) {
  const Workload workload;
  const std::vector<RoutedQuery> trace = workload.Trace(12);
  const std::vector<std::vector<RoutedQuery>> batches = {
      {trace.begin(), trace.begin() + 3},
      {trace.begin() + 3, trace.begin() + 5},
      {trace.begin() + 5, trace.begin() + 9},
      {trace.begin() + 9, trace.end()}};
  // The warm set comes from another workload (a looser alpha), so
  // replacing the shard's cache with it is visible.
  const Workload loose_workload(0.2);
  LocalShardBackend::Options options = BackendOptions(/*jobs=*/2);
  options.cache.enabled = true;
  LocalShardBackend donor(options);
  ASSERT_TRUE(donor.RunBatch(loose_workload.Trace(4, 0.2)).ok());
  const std::vector<cache::ExportedEntry> warm_set = donor.ExportCache();
  ASSERT_FALSE(warm_set.empty());
  constexpr size_t kGossipBefore = 2;

  LocalShardBackend backend(options);
  std::vector<cache::ExportedEntry> warm;
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE(b);
    if (b == kGossipBefore) {
      backend.SetWarmCache(warm_set);
      warm = warm_set;
    }
    const util::StatusOr<ShardBatchResult> got = backend.RunBatch(batches[b]);
    ASSERT_TRUE(got.ok());

    serve::ServeOptions serve_options;
    serve_options.schedule = options.schedule;
    serve_options.max_inflight = options.max_inflight;
    serve_options.jobs = options.jobs;
    serve_options.seed = options.seed;
    serve_options.cache = options.cache;
    serve::QueryService fresh(serve_options);
    fresh.RestoreCache(warm);
    std::vector<serve::QueryRequest> requests(batches[b].size());
    for (size_t i = 0; i < requests.size(); ++i) {
      requests[i].algorithm = batches[b][i].algorithm.get();
      requests[i].dataset = batches[b][i].dataset_ptr;
      requests[i].k = batches[b][i].k;
      requests[i].cache_universe = batches[b][i].universe;
      requests[i].seed_stream = batches[b][i].global_id;
    }
    const std::vector<serve::QueryOutcome> expected =
        fresh.Replay(requests, std::vector<double>(requests.size(), 0.0));
    warm = fresh.ExportCache();

    ASSERT_EQ(got->results.size(), expected.size());
    int64_t microtasks = 0;
    for (size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(i);
      const ShardQueryResult& r = got->results[i];
      const serve::QueryOutcome& e = expected[i];
      EXPECT_EQ(r.global_id, batches[b][i].global_id);
      EXPECT_EQ(r.status.ToString(), e.status.ToString());
      EXPECT_EQ(r.items, e.items);
      EXPECT_EQ(r.precision_at_k, e.precision_at_k);
      EXPECT_EQ(r.total_microtasks, e.total_microtasks);
      EXPECT_EQ(r.rounds_private, e.rounds_private);
      EXPECT_EQ(r.expired_assignments, e.expired_assignments);
      EXPECT_EQ(r.requeued_assignments, e.requeued_assignments);
      EXPECT_EQ(r.rounds_observed, e.rounds_observed);
      EXPECT_EQ(r.latency_seconds, e.latency_seconds);
      EXPECT_EQ(r.queue_wait_seconds, e.start_seconds - e.arrival_seconds);
      microtasks += e.total_microtasks;
    }
    EXPECT_EQ(got->microtasks, microtasks);
    EXPECT_EQ(CacheImage(backend.ExportCache()), CacheImage(warm));
  }
  EXPECT_EQ(backend.batches_run(), static_cast<int64_t>(batches.size()));
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
    requests[i].algorithm = trace[i].algorithm.get();
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

// ----- scatter threads -----------------------------------------------------

// A shard that records the thread RunBatch ran on and answers every query
// with an empty OK result. Each call counts itself into `entered`, then
// waits, for at most 10 s, until `peers` calls have entered.
class ThreadRecordingBackend : public ShardBackend {
 public:
  ThreadRecordingBackend(std::atomic<int>* entered, int peers)
      : entered_(entered), peers_(peers) {}

  util::StatusOr<ShardBatchResult> RunBatch(
      const std::vector<RoutedQuery>& batch) override {
    thread_ = std::this_thread::get_id();
    entered_->fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (entered_->load() < peers_ &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    met_peers_ = entered_->load() >= peers_;
    ShardBatchResult result;
    result.results.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      result.results[i].global_id = batch[i].global_id;
    }
    return result;
  }
  bool dead() const override { return false; }
  bool SupportsCacheSync() const override { return false; }
  std::vector<cache::ExportedEntry> ExportCache() const override {
    return {};
  }
  void SetWarmCache(std::vector<cache::ExportedEntry>) override {}
  int64_t batches_run() const override { return 0; }
  int64_t queries_run() const override { return 0; }
  int64_t microtasks() const override { return 0; }

  std::thread::id thread() const { return thread_; }
  bool met_peers() const { return met_peers_; }

 private:
  std::atomic<int>* entered_;
  const int peers_;
  std::thread::id thread_;
  bool met_peers_ = false;
};

// A router over `shards` recording backends that each wait for `peers`.
ShardRouter RecordingRouter(int64_t shards, std::atomic<int>* entered,
                            int peers) {
  std::vector<std::unique_ptr<ShardBackend>> backends;
  for (int64_t s = 0; s < shards; ++s) {
    backends.push_back(
        std::make_unique<ThreadRecordingBackend>(entered, peers));
  }
  return ShardRouter(RouterOptions(), std::move(backends));
}

const ThreadRecordingBackend& Recorded(const ShardRouter& router,
                                       int64_t shard) {
  return static_cast<const ThreadRecordingBackend&>(router.backend(shard));
}

RoutedQuery Placed(int64_t global_id, int64_t universe) {
  RoutedQuery query;
  query.global_id = global_id;
  query.dataset = "ladder";
  query.algo = "heapsort";
  query.universe = universe;
  return query;
}

// A wave with one busy shard runs it on the routing thread and starts no
// thread: at K = 1, and at K = 4 with every query placed on one shard.
TEST(ShardRouterTest, LoneBusyShardRunsOnTheCallingThread) {
  for (const int64_t shards : {1, 4}) {
    std::atomic<int> entered{0};
    ShardRouter router = RecordingRouter(shards, &entered, 1);
    const std::vector<RoutedOutcome> outcomes =
        router.RouteBatch({Placed(0, 0), Placed(1, 0), Placed(2, 0)});
    const int64_t target =
        RankShards(PlacementKey{0, "ladder", "heapsort"}, shards).front();
    EXPECT_EQ(Recorded(router, target).thread(), std::this_thread::get_id())
        << "shards=" << shards;
    EXPECT_EQ(entered.load(), 1);
    for (const RoutedOutcome& o : outcomes) EXPECT_EQ(o.shard_id, target);
  }
}

// Two busy shards still run at once: each call waits for the other to
// enter RunBatch. The last busy shard runs on the routing thread, the
// other on a thread of its own.
TEST(ShardRouterTest, TwoBusyShardsStillOverlap) {
  std::atomic<int> entered{0};
  ShardRouter router = RecordingRouter(2, &entered, 2);
  const int64_t first =
      RankShards(PlacementKey{0, "ladder", "heapsort"}, 2).front();
  int64_t universe = 1;
  while (RankShards(PlacementKey{universe, "ladder", "heapsort"}, 2)
             .front() == first) {
    ++universe;
  }
  const std::vector<RoutedOutcome> outcomes =
      router.RouteBatch({Placed(0, 0), Placed(1, universe)});
  EXPECT_NE(outcomes[0].shard_id, outcomes[1].shard_id);
  for (int64_t s = 0; s < 2; ++s) {
    EXPECT_TRUE(Recorded(router, s).met_peers()) << "shard " << s;
  }
  EXPECT_NE(Recorded(router, 0).thread(), std::this_thread::get_id());
  EXPECT_EQ(Recorded(router, 1).thread(), std::this_thread::get_id());
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

// HeapSort that counts its live instances.
class CountedHeapSort : public baselines::HeapSortTopK {
 public:
  CountedHeapSort(const judgment::ComparisonOptions& options,
                  std::atomic<int64_t>* live)
      : HeapSortTopK(options), live_(live) {
    live_->fetch_add(1);
  }
  ~CountedHeapSort() override { live_->fetch_sub(1); }

 private:
  std::atomic<int64_t>* live_;
};

// Alpha and budget come from clients, so an instance per distinct
// (algorithm, alpha, budget) kept forever would grow without bound. Each
// query's instance must die with it: once a later batch has completed, at
// most that batch's instance may still be held.
TEST(RouterEngineTest, KeepsNoAlgorithmPastItsQuery) {
  std::atomic<int64_t> live{0};
  {
    net::ServerOptions options;
    options.seed = kSeed;
    options.max_queue = -1;
    options.dataset_factory = [](const std::string&, uint64_t) {
      return std::unique_ptr<data::Dataset>(
          data::MakeUniformLadder(3, 2.0, 0.5));
    };
    options.algorithm_factory =
        [&live](const std::string&,
                const judgment::ComparisonOptions& comparison)
        -> std::unique_ptr<core::TopKAlgorithm> {
      return std::make_unique<CountedHeapSort>(comparison, &live);
    };
    RouterEngine engine(options, RouterEngineConfig(), [] {});

    net::SubmitQuery spec;
    spec.dataset = "ladder";
    spec.k = 1;
    spec.algo = "heapsort";
    const auto run = [&engine, &spec](int64_t queries, double first_alpha) {
      for (int64_t q = 0; q < queries; ++q) {
        spec.alpha = first_alpha + 0.001 * static_cast<double>(q);
        ASSERT_TRUE(engine.Submit(/*conn_id=*/0, spec).ok());
      }
      int64_t completed = 0;
      while (completed < queries) {
        const std::vector<net::Completion> taken = engine.TakeCompletions();
        if (taken.empty()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (const net::Completion& c : taken) {
          EXPECT_FALSE(c.send_error);
          EXPECT_EQ(c.result.status_code, 0u);
        }
        completed += static_cast<int64_t>(taken.size());
      }
    };
    run(32, 0.01);
    run(1, 0.2);
    EXPECT_LE(live.load(), 1);
  }
  EXPECT_EQ(live.load(), 0);
}

}  // namespace
}  // namespace crowdtopk::shard
