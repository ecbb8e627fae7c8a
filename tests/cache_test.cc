// Tests for the cross-query judgment cache (src/cache) and its judgment- and
// serve-layer wiring: hit/top-up confidence rules, orientation and id
// translation, capacity semantics (0 = byte-identical pass-through),
// client staging and barrier commits, the transitivity composition rule,
// bit-exact session resumption against a cold run, and end-to-end TMC
// savings with bit-identity across serve worker counts.

#include <memory>
#include <vector>

#include "baselines/tournament_tree.h"
#include "cache/cache_client.h"
#include "cache/judgment_cache.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "data/subset_dataset.h"
#include "gtest/gtest.h"
#include "judgment/cache.h"
#include "judgment/comparison.h"
#include "serve/query_service.h"
#include "stats/student_t.h"

namespace crowdtopk::cache {
namespace {

using crowd::ComparisonOutcome;
using crowd::ItemId;

CachedComparison DecisiveEntry(double alpha, int64_t count, double mean) {
  CachedComparison entry;
  entry.outcome =
      mean > 0 ? ComparisonOutcome::kLeftWins : ComparisonOutcome::kRightWins;
  entry.decisive = true;
  entry.alpha = alpha;
  entry.count = count;
  entry.mean = mean;
  entry.m2 = 0.5 * static_cast<double>(count);
  entry.first_stage_count = 30;
  entry.first_stage_sd = 0.7;
  return entry;
}

CachedComparison TieEntry(int64_t count) {
  CachedComparison entry;
  entry.outcome = ComparisonOutcome::kTie;
  entry.decisive = false;
  entry.alpha = 0.02;
  entry.count = count;
  entry.mean = 0.001;
  entry.m2 = 0.5 * static_cast<double>(count);
  return entry;
}

// Stages `entry`, oriented for (i, j), through a client of `universe` and
// commits it at once.
void Put(JudgmentCache* cache, int64_t universe, ItemId i, ItemId j,
         const CachedComparison& entry) {
  CacheClient client(cache, universe);
  client.Record(i, j, JudgmentKind::kPreference, entry);
  cache->Commit(client.TakeStaged());
}

// Lookups are counted by the client that makes them.
TEST(JudgmentCacheTest, MissOnEmpty) {
  JudgmentCache cache(CacheOptions{});
  CacheClient client(&cache, /*universe=*/0);
  const LookupResult result =
      client.Lookup(1, 2, 0.02, 1000, JudgmentKind::kPreference);
  EXPECT_EQ(result.status, LookupStatus::kMiss);
  EXPECT_EQ(client.stats().misses, 1);
}

// The hit rule: a decisive entry answers only requests whose confidence the
// cached verdict covers (cached alpha <= requested alpha); stricter
// requesters get the bag as a top-up seed instead.
TEST(JudgmentCacheTest, HitOnlyAtCoveringConfidence) {
  JudgmentCache cache(CacheOptions{});
  Put(&cache, 0, 1, 2,
      DecisiveEntry(/*alpha=*/0.02, /*count=*/60, /*mean=*/0.4));

  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kHit);
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.10, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kHit);
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.01, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kTopUp);
}

// A budget-exhausted tie is only an answer for requesters whose own budget
// the cached funding already covers; a richer requester keeps sampling.
TEST(JudgmentCacheTest, TieHitRequiresBudgetCoverage) {
  JudgmentCache cache(CacheOptions{});
  Put(&cache, 0, 1, 2, TieEntry(/*count=*/100));

  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 100, JudgmentKind::kPreference)
                .status,
            LookupStatus::kHit);
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 80, JudgmentKind::kPreference).status,
            LookupStatus::kHit);
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 500, JudgmentKind::kPreference)
                .status,
            LookupStatus::kTopUp);
}

// Entries are stored canonically but served oriented for the asked (i, j):
// looking the pair up backwards flips the verdict and negates the mean.
TEST(JudgmentCacheTest, LookupOrientsEntryForCaller) {
  JudgmentCache cache(CacheOptions{});
  Put(&cache, 0, /*i=*/5, /*j=*/3,
      DecisiveEntry(0.02, 60, /*mean=*/0.4));  // 5 beats 3

  const LookupResult forward =
      cache.Lookup(0, 5, 3, 0.02, 1000, JudgmentKind::kPreference);
  EXPECT_EQ(forward.entry.outcome, ComparisonOutcome::kLeftWins);
  EXPECT_DOUBLE_EQ(forward.entry.mean, 0.4);

  const LookupResult backward =
      cache.Lookup(0, 3, 5, 0.02, 1000, JudgmentKind::kPreference);
  EXPECT_EQ(backward.entry.outcome, ComparisonOutcome::kRightWins);
  EXPECT_DOUBLE_EQ(backward.entry.mean, -0.4);
}

// Preference and binary bags are different sample spaces; universes are
// disjoint namespaces. Neither may serve the other.
TEST(JudgmentCacheTest, KindAndUniverseNamespacesAreDisjoint) {
  JudgmentCache cache(CacheOptions{});
  Put(&cache, /*universe=*/0, 1, 2, DecisiveEntry(0.02, 60, 0.4));

  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kBinary).status,
            LookupStatus::kMiss);
  EXPECT_EQ(cache.Lookup(1, 1, 2, 0.02, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kMiss);
}

TEST(JudgmentCacheTest, CapacityZeroStoresAndServesNothing) {
  CacheOptions options;
  options.capacity = 0;
  JudgmentCache cache(options);
  CacheClient client(&cache, /*universe=*/0);
  client.Record(1, 2, JudgmentKind::kPreference, DecisiveEntry(0.02, 60, 0.4));
  // Nothing is staged, so a barrier has no cache insert to hash.
  EXPECT_TRUE(client.TakeStaged().empty());
  Put(&cache, 0, 1, 2, DecisiveEntry(0.02, 60, 0.4));
  EXPECT_EQ(cache.num_pairs(), 0);
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kMiss);
}

TEST(JudgmentCacheTest, FullCacheDropsNewPairsDeterministically) {
  CacheOptions options;
  options.capacity = 1;
  JudgmentCache cache(options);
  Put(&cache, 0, 1, 2, DecisiveEntry(0.02, 60, 0.4));
  Put(&cache, 0, 3, 4, DecisiveEntry(0.02, 60, 0.4));
  EXPECT_EQ(cache.num_pairs(), 1);
  EXPECT_EQ(cache.stats().dropped_capacity, 1);
  // Upgrading the resident pair still works at capacity.
  Put(&cache, 0, 1, 2, DecisiveEntry(0.01, 90, 0.4));
  EXPECT_EQ(cache.stats().upgrades, 1);
}

// The merge rule: decisive beats tie, then lower alpha, then higher count;
// anything else keeps the incumbent, so commit order cannot matter.
TEST(JudgmentCacheTest, BetterEntryReplacesWorse) {
  JudgmentCache cache(CacheOptions{});
  Put(&cache, 0, 1, 2, TieEntry(1000));
  Put(&cache, 0, 1, 2, DecisiveEntry(0.02, 60, 0.4));
  EXPECT_EQ(cache.stats().upgrades, 1);
  EXPECT_TRUE(cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference)
                  .entry.decisive);
  // A later, weaker verdict does not displace the stronger one.
  Put(&cache, 0, 1, 2, DecisiveEntry(0.05, 40, 0.4));
  EXPECT_EQ(cache.stats().upgrades, 1);
  EXPECT_DOUBLE_EQ(
      cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference).entry.alpha,
      0.02);
}

// A client's inserts stay staged until the cache's owner commits them (the
// serving layer does so at its quiescence barriers), and are handed over
// once.
TEST(JudgmentCacheTest, DeferredCommitAppliesOnlyAtBarrier) {
  JudgmentCache cache(CacheOptions{});
  CacheClient client(&cache, /*universe=*/0);
  client.Record(1, 2, JudgmentKind::kPreference, DecisiveEntry(0.02, 60, 0.4));
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kMiss);
  cache.Commit(client.TakeStaged());
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kHit);
  EXPECT_TRUE(client.TakeStaged().empty());
}

// ---------------------------------------------------------------------------
// Transitivity.

TEST(TransitivityTest, ComposesSameDirectionChainsUnderUnionBound) {
  CacheOptions options;
  options.transitivity = true;
  JudgmentCache cache(options);
  // 1 beats 5 and 5 beats 2, both at alpha = 0.005.
  Put(&cache, 0, 1, 5, DecisiveEntry(0.005, 60, 0.4));
  Put(&cache, 0, 5, 2, DecisiveEntry(0.005, 60, 0.4));

  // alpha = 0.02 >= 0.005 + 0.005: served.
  const LookupResult inferred =
      cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference);
  ASSERT_EQ(inferred.status, LookupStatus::kInferred);
  EXPECT_EQ(inferred.entry.outcome, ComparisonOutcome::kLeftWins);
  EXPECT_DOUBLE_EQ(inferred.entry.alpha, 0.01);
  // No samples ride along with a composed verdict.
  EXPECT_EQ(inferred.entry.count, 0);
  // Reverse orientation flips the verdict.
  EXPECT_EQ(cache.Lookup(0, 2, 1, 0.02, 1000, JudgmentKind::kPreference)
                .entry.outcome,
            ComparisonOutcome::kRightWins);
}

TEST(TransitivityTest, RefusesWhenComposedAlphaExceedsRequest) {
  CacheOptions options;
  options.transitivity = true;
  JudgmentCache cache(options);
  // Both links at the requester's own alpha: 0.02 + 0.02 > 0.02.
  Put(&cache, 0, 1, 5, DecisiveEntry(0.02, 60, 0.4));
  Put(&cache, 0, 5, 2, DecisiveEntry(0.02, 60, 0.4));
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kMiss);
}

TEST(TransitivityTest, RefusesMixedDirectionChains) {
  CacheOptions options;
  options.transitivity = true;
  JudgmentCache cache(options);
  // 1 beats 5 but 2 beats 5: the chain does not point through 5.
  Put(&cache, 0, 1, 5, DecisiveEntry(0.005, 60, 0.4));
  Put(&cache, 0, 2, 5, DecisiveEntry(0.005, 60, 0.4));
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kMiss);
}

TEST(TransitivityTest, OffByDefault) {
  JudgmentCache cache(CacheOptions{});
  Put(&cache, 0, 1, 5, DecisiveEntry(0.005, 60, 0.4));
  Put(&cache, 0, 5, 2, DecisiveEntry(0.005, 60, 0.4));
  EXPECT_EQ(cache.Lookup(0, 1, 2, 0.02, 1000, JudgmentKind::kPreference)
                .status,
            LookupStatus::kMiss);
}

// ---------------------------------------------------------------------------
// CacheClient id translation.

TEST(CacheClientTest, TranslatesLocalIdsAndPreservesOrientation) {
  JudgmentCache cache(CacheOptions{});
  // Query A runs over universe items {10, 20, 30} as locals {0, 1, 2} and
  // resolves local 0 > local 2 (universe 10 > 30).
  CacheClient a(&cache, /*universe=*/0, {10, 20, 30});
  a.Record(0, 2, JudgmentKind::kPreference, DecisiveEntry(0.02, 60, 0.4));
  cache.Commit(a.TakeStaged());

  // Query B sees the same universe items in a different local order.
  CacheClient b(&cache, /*universe=*/0, {30, 10});
  const LookupResult result =
      b.Lookup(/*i=*/0, /*j=*/1, 0.02, 1000, JudgmentKind::kPreference);
  ASSERT_EQ(result.status, LookupStatus::kHit);
  // B's local 0 is universe 30, which loses to universe 10 (B's local 1).
  EXPECT_EQ(result.entry.outcome, ComparisonOutcome::kRightWins);
  EXPECT_DOUBLE_EQ(result.entry.mean, -0.4);
  EXPECT_EQ(b.stats().hits, 1);
  EXPECT_EQ(b.stats().seeded_samples, 60);
}

// ---------------------------------------------------------------------------
// Session resumption: a top-up must reproduce the cold run bit for bit.

// An oracle replaying a fixed judgment sequence (ignoring the rng), with a
// settable read position so a warm session can resume mid-sequence.
class SequenceOracle : public data::Dataset {
 public:
  SequenceOracle() : Dataset("Sequence", {1.0, 0.0}) {}

  double PreferenceJudgment(ItemId, ItemId, util::Rng*) const override {
    return ValueAt(position_++);
  }
  double GradedJudgment(ItemId, util::Rng*) const override { return 0.5; }

  void set_position(int64_t position) const { position_ = position; }
  int64_t position() const { return position_; }

  // Mixed early samples (the interval stays wide through the cold start),
  // then a strong positive run so the session concludes mid-sequence.
  static double ValueAt(int64_t t) {
    if (t < 45) return t % 2 == 0 ? 1.0 : -1.0;
    return 1.0;
  }

 private:
  mutable int64_t position_ = 0;
};

TEST(SessionSeedTest, TopUpReproducesColdRunBitForBit) {
  judgment::ComparisonOptions options;

  // Cold reference run: one session from scratch to completion.
  SequenceOracle oracle;
  crowd::CrowdPlatform cold_platform(&oracle, /*seed=*/1);
  judgment::ComparisonSession cold(0, 1, &options);
  const ComparisonOutcome cold_outcome = cold.RunToCompletion(&cold_platform);
  const int64_t cold_workload = cold.workload();
  ASSERT_GT(cold_workload, options.min_workload);  // concluded mid-sequence

  // Donor run: same sequence from the start, but only the cold-start batch.
  oracle.set_position(0);
  crowd::CrowdPlatform donor_platform(&oracle, /*seed=*/2);
  judgment::ComparisonSession donor(0, 1, &options);
  donor.Step(&donor_platform, options.batch_size);
  ASSERT_FALSE(donor.Finished());
  const int64_t donated = donor.workload();

  // Warm run: seed from the donor's summary, then resume the sequence at
  // the donor's position. Must replay the cold run's tail exactly.
  crowd::CrowdPlatform warm_platform(&oracle, /*seed=*/3);
  judgment::ComparisonSession warm(0, 1, &options);
  warm.SeedFromCache(donor.workload(), donor.Mean(), donor.M2(),
                     donor.first_stage_count(), donor.first_stage_sd());
  ASSERT_FALSE(warm.Finished());
  oracle.set_position(donated);
  const ComparisonOutcome warm_outcome = warm.RunToCompletion(&warm_platform);

  EXPECT_EQ(warm_outcome, cold_outcome);
  EXPECT_EQ(warm.workload(), cold_workload);
  // The warm platform is charged exactly the cold remainder.
  EXPECT_EQ(warm_platform.total_microtasks(), cold_workload - donated);
  // Bit-exact accumulator state, not merely close.
  EXPECT_EQ(warm.Mean(), cold.Mean());
  EXPECT_EQ(warm.M2(), cold.M2());
}

// ---------------------------------------------------------------------------
// Judgment-layer wiring: ComparisonCache consults and publishes through the
// platform-attached client.

TEST(ComparisonCacheSharedTest, SecondQueryHitsWithoutPurchases) {
  const auto dataset = data::MakeUniformLadder(6, 10.0, 2.0);
  judgment::ComparisonOptions options;
  JudgmentCache shared(CacheOptions{});

  crowd::CrowdPlatform first_platform(dataset.get(), /*seed=*/11);
  CacheClient first_client(&shared, /*universe=*/0);
  first_platform.SetCacheClient(&first_client);
  ComparisonOutcome first_outcome;
  {
    judgment::ComparisonCache cache(options, &first_platform);
    first_outcome = cache.Compare(0, 1, &first_platform);
  }  // destructor publishes
  ASSERT_GT(first_platform.total_microtasks(), 0);
  shared.Commit(first_client.TakeStaged());
  EXPECT_EQ(shared.num_pairs(), 1);

  crowd::CrowdPlatform second_platform(dataset.get(), /*seed=*/22);
  CacheClient second_client(&shared, /*universe=*/0);
  second_platform.SetCacheClient(&second_client);
  judgment::ComparisonCache cache(options, &second_platform);
  EXPECT_EQ(cache.Compare(0, 1, &second_platform), first_outcome);
  EXPECT_EQ(second_platform.total_microtasks(), 0);
  EXPECT_EQ(second_client.stats().hits, 1);
  // The seeded session exposes the donor's estimates to the algorithm.
  EXPECT_NE(cache.EstimatedMean(0, 1), 0.0);
}

// Without a client on the platform nothing is consulted or published — the
// legacy single-query path is untouched.
TEST(ComparisonCacheSharedTest, NoClientMeansNoSharing) {
  const auto dataset = data::MakeUniformLadder(6, 10.0, 2.0);
  judgment::ComparisonOptions options;
  crowd::CrowdPlatform platform(dataset.get(), /*seed=*/11);
  judgment::ComparisonCache cache(options, &platform);
  cache.Compare(0, 1, &platform);
  EXPECT_GT(platform.total_microtasks(), 0);
}

// ---------------------------------------------------------------------------
// Serve-layer wiring.

serve::ServeOptions SequentialServe(bool cached) {
  serve::ServeOptions options;
  options.max_inflight = 1;
  options.jobs = 1;
  options.seed = 77;
  options.cache.enabled = cached;
  return options;
}

std::vector<serve::QueryOutcome> ReplayTwice(
    const data::Dataset* dataset, core::TopKAlgorithm* algorithm,
    const serve::ServeOptions& options) {
  std::vector<serve::QueryRequest> requests(2);
  for (serve::QueryRequest& request : requests) {
    request.algorithm = algorithm;
    request.dataset = dataset;
    request.k = 3;
  }
  serve::QueryService service(options);
  return service.Replay(requests, {0.0, 0.0});
}

TEST(ServeCacheTest, RepeatQueryReusesAndSavesMicrotasks) {
  // Small universe: the two queries' random brackets are certain to share
  // pairs.
  const auto dataset = data::MakeUniformLadder(10, 10.0, 2.0);
  judgment::ComparisonOptions comparison;
  baselines::TournamentTree algorithm(comparison);

  const auto uncached =
      ReplayTwice(dataset.get(), &algorithm, SequentialServe(false));
  const auto cached =
      ReplayTwice(dataset.get(), &algorithm, SequentialServe(true));

  // Query 0 runs cold either way; query 1 reuses whatever pairs its bracket
  // shares with query 0's and must get strictly cheaper.
  EXPECT_EQ(cached[0].total_microtasks, uncached[0].total_microtasks);
  EXPECT_EQ(cached[0].cache_hits, 0);
  EXPECT_GT(cached[1].cache_hits, 0);
  EXPECT_LT(cached[1].total_microtasks, uncached[1].total_microtasks);
  // Reuse never changes the answer on a well-separated ladder.
  EXPECT_EQ(cached[1].items, uncached[1].items);
}

TEST(ServeCacheTest, ZeroCapacityIsByteIdenticalToDisabled) {
  const auto dataset = data::MakeUniformLadder(16, 10.0, 2.0);
  judgment::ComparisonOptions comparison;
  baselines::TournamentTree algorithm(comparison);

  serve::ServeOptions zero_capacity = SequentialServe(true);
  zero_capacity.cache.capacity = 0;
  const auto disabled =
      ReplayTwice(dataset.get(), &algorithm, SequentialServe(false));
  const auto passthrough =
      ReplayTwice(dataset.get(), &algorithm, zero_capacity);

  ASSERT_EQ(disabled.size(), passthrough.size());
  for (size_t q = 0; q < disabled.size(); ++q) {
    EXPECT_EQ(disabled[q].items, passthrough[q].items);
    EXPECT_EQ(disabled[q].total_microtasks, passthrough[q].total_microtasks);
    EXPECT_EQ(disabled[q].rounds_observed, passthrough[q].rounds_observed);
    EXPECT_EQ(disabled[q].finish_seconds, passthrough[q].finish_seconds);
    EXPECT_EQ(passthrough[q].cache_hits, 0);
    EXPECT_EQ(passthrough[q].cache_topups, 0);
  }
}

// The determinism contract extends to the shared cache: a concurrent cached
// replay is bit-identical between jobs=1 and jobs=8.
TEST(ServeCacheTest, CachedReplayBitIdenticalAcrossJobs) {
  const auto dataset = data::MakeUniformLadder(16, 10.0, 2.0);
  judgment::ComparisonOptions comparison;
  baselines::TournamentTree algorithm(comparison);

  std::vector<serve::QueryRequest> requests(6);
  for (serve::QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  const std::vector<double> arrivals(6, 0.0);

  std::vector<std::vector<serve::QueryOutcome>> by_jobs;
  for (const int64_t jobs : {int64_t{1}, int64_t{8}}) {
    serve::ServeOptions options;
    options.max_inflight = 4;  // concurrent drivers share the cache
    options.jobs = jobs;
    options.seed = 77;
    options.cache.enabled = true;
    serve::QueryService service(options);
    by_jobs.push_back(service.Replay(requests, arrivals));
  }
  ASSERT_EQ(by_jobs[0].size(), by_jobs[1].size());
  for (size_t q = 0; q < by_jobs[0].size(); ++q) {
    EXPECT_EQ(by_jobs[0][q].items, by_jobs[1][q].items);
    EXPECT_EQ(by_jobs[0][q].total_microtasks, by_jobs[1][q].total_microtasks);
    EXPECT_EQ(by_jobs[0][q].cache_hits, by_jobs[1][q].cache_hits);
    EXPECT_EQ(by_jobs[0][q].cache_topups, by_jobs[1][q].cache_topups);
    EXPECT_EQ(by_jobs[0][q].finish_seconds, by_jobs[1][q].finish_seconds);
  }
}

// Subset queries translate local ids through cache_item_ids, so two
// different subset views of one parent share judgments in parent-id space.
TEST(ServeCacheTest, SubsetQueriesShareThroughIdTranslation) {
  const auto parent = data::MakeUniformLadder(12, 10.0, 2.0);
  // Two subsets over the SAME parent items, listed in different local
  // orders.
  data::SubsetDataset first(parent.get(), {0, 2, 4, 6, 8, 10});
  data::SubsetDataset second(parent.get(), {10, 8, 6, 4, 2, 0});
  judgment::ComparisonOptions comparison;
  baselines::TournamentTree algorithm(comparison);

  std::vector<serve::QueryRequest> requests(2);
  for (serve::QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.k = 3;
    request.cache_universe = 0;
  }
  requests[0].dataset = &first;
  requests[0].cache_item_ids = first.parent_ids();
  requests[1].dataset = &second;
  requests[1].cache_item_ids = second.parent_ids();

  serve::QueryService service(SequentialServe(true));
  const auto outcomes = service.Replay(requests, {0.0, 0.0});
  EXPECT_GT(outcomes[1].cache_hits + outcomes[1].cache_topups, 0);
  // Translation must preserve correctness: both queries agree on the true
  // top items (locals differ, parents match).
  std::vector<ItemId> first_parents, second_parents;
  for (ItemId local : outcomes[0].items) {
    first_parents.push_back(first.ToParentId(local));
  }
  for (ItemId local : outcomes[1].items) {
    second_parents.push_back(second.ToParentId(local));
  }
  EXPECT_EQ(first_parents, second_parents);
}

// Capacity drops are attributed to the universe whose insert was refused,
// ascending by universe id, and sum to the aggregate dropped_capacity.
TEST(JudgmentCacheTest, DropsAreCountedPerUniverse) {
  CacheOptions options;
  options.capacity = 2;
  JudgmentCache cache(options);
  Put(&cache, /*universe=*/0, 1, 2, DecisiveEntry(0.02, 50, 0.9));
  Put(&cache, /*universe=*/7, 1, 2, DecisiveEntry(0.02, 50, 0.9));
  // Full: one refused insert for universe 7, two for universe 0.
  Put(&cache, 7, 3, 4, DecisiveEntry(0.02, 50, 0.9));
  Put(&cache, 0, 3, 4, DecisiveEntry(0.02, 50, 0.9));
  Put(&cache, 0, 5, 6, DecisiveEntry(0.02, 50, 0.9));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.dropped_capacity, 3);
  ASSERT_EQ(stats.dropped_by_universe.size(), 2u);
  EXPECT_EQ(stats.dropped_by_universe[0], (std::pair<int64_t, int64_t>(0, 2)));
  EXPECT_EQ(stats.dropped_by_universe[1], (std::pair<int64_t, int64_t>(7, 1)));
  // Upgrades of an existing pair are not drops.
  Put(&cache, 0, 1, 2, DecisiveEntry(0.01, 80, 0.9));
  EXPECT_EQ(cache.stats().dropped_capacity, 3);
}

// Export/RestoreEntries is the warm-restart unit: a fresh cache restored
// from an export serves the same verdicts, counts the imports under
// `restored` (not `inserts`), and re-exports the identical image.
TEST(JudgmentCacheTest, ExportRestoreRoundTrip) {
  JudgmentCache donor(CacheOptions{});
  Put(&donor, 0, 1, 2, DecisiveEntry(0.02, 50, 0.9));
  Put(&donor, 3, /*i=*/9, /*j=*/4, DecisiveEntry(0.05, 20, -0.4));
  const std::vector<ExportedEntry> image = donor.Export();
  ASSERT_EQ(image.size(), 2u);
  // Canonical order: (universe, pair) ascending, lo < hi.
  EXPECT_EQ(image[0].universe, 0);
  EXPECT_EQ(image[1].universe, 3);
  EXPECT_LT(image[1].lo, image[1].hi);

  JudgmentCache restored(CacheOptions{});
  restored.RestoreEntries(image);
  const CacheStats stats = restored.stats();
  EXPECT_EQ(stats.restored, 2);
  EXPECT_EQ(stats.inserts, 0);
  EXPECT_EQ(stats.pairs, 2);

  const LookupResult hit =
      restored.Lookup(0, 1, 2, 0.05, 1000, JudgmentKind::kPreference);
  EXPECT_EQ(hit.status, LookupStatus::kHit);
  EXPECT_EQ(hit.entry.outcome, ComparisonOutcome::kLeftWins);

  // Bit-exact round trip, orientation included.
  const std::vector<ExportedEntry> again = restored.Export();
  ASSERT_EQ(again.size(), image.size());
  for (size_t i = 0; i < image.size(); ++i) {
    EXPECT_EQ(again[i].universe, image[i].universe);
    EXPECT_EQ(again[i].lo, image[i].lo);
    EXPECT_EQ(again[i].hi, image[i].hi);
    EXPECT_EQ(again[i].entry.mean, image[i].entry.mean);
    EXPECT_EQ(again[i].entry.m2, image[i].entry.m2);
    EXPECT_EQ(again[i].entry.count, image[i].entry.count);
  }
}

}  // namespace
}  // namespace crowdtopk::cache
