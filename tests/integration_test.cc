// Cross-module integration tests: full queries on the generated datasets,
// determinism, budget/quality interplay, worker-pool robustness, latency
// bounds, and the one-sided interval extension.

#include <algorithm>
#include <memory>
#include <set>

#include "baselines/heap_sort.h"
#include "baselines/quick_select.h"
#include "baselines/tournament_tree.h"
#include "core/latency_bounds.h"
#include "core/select_reference.h"
#include "core/sorting.h"
#include "core/spr.h"
#include "crowd/platform.h"
#include "crowd/workers.h"
#include "data/generators.h"
#include "data/subset_dataset.h"
#include "gtest/gtest.h"
#include "metrics/ranking_metrics.h"

namespace crowdtopk {
namespace {

judgment::ComparisonOptions FastOptions() {
  judgment::ComparisonOptions options;
  options.alpha = 0.05;
  options.budget = 400;
  options.min_workload = 30;
  options.batch_size = 30;
  return options;
}

// ------------------------------------------- End-to-end on every dataset

class EveryDatasetTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EveryDatasetTest, SprAnswersValidlyOnSubset) {
  auto full = data::MakeByName(GetParam(), 11);
  util::Rng rng(5);
  const int64_t n = std::min<int64_t>(80, full->num_items());
  auto subset = data::RandomSubset(full.get(), n, &rng);
  crowd::CrowdPlatform platform(subset.get(), 77);
  core::SprOptions options;
  options.comparison = FastOptions();
  core::Spr spr(options);
  const core::TopKResult result = spr.Run(&platform, 8);
  ASSERT_EQ(result.items.size(), 8u);
  std::set<crowd::ItemId> unique(result.items.begin(), result.items.end());
  EXPECT_EQ(unique.size(), 8u);
  EXPECT_GT(result.total_microtasks, 0);
  EXPECT_GT(result.rounds, 0);
  // Far better than a random 8-subset (expected NDCG of random ~ 0.1).
  EXPECT_GT(metrics::Ndcg(*subset, result.items, 8), 0.35);
}

INSTANTIATE_TEST_SUITE_P(Datasets, EveryDatasetTest,
                         ::testing::Values("imdb", "book", "jester", "photo",
                                           "peopleage"));

// ------------------------------------------------------------ Determinism

TEST(DeterminismTest, IdenticalSeedsGiveIdenticalRuns) {
  auto dataset = data::MakeJesterLike(3);
  core::SprOptions options;
  options.comparison = FastOptions();
  core::Spr spr(options);

  crowd::CrowdPlatform a(dataset.get(), 123);
  const core::TopKResult ra = spr.Run(&a, 7);
  crowd::CrowdPlatform b(dataset.get(), 123);
  const core::TopKResult rb = spr.Run(&b, 7);
  EXPECT_EQ(ra.items, rb.items);
  EXPECT_EQ(ra.total_microtasks, rb.total_microtasks);
  EXPECT_EQ(ra.rounds, rb.rounds);
}

TEST(DeterminismTest, DifferentSeedsUsuallyDifferInCost) {
  auto dataset = data::MakeJesterLike(3);
  core::SprOptions options;
  options.comparison = FastOptions();
  core::Spr spr(options);
  crowd::CrowdPlatform a(dataset.get(), 1);
  crowd::CrowdPlatform b(dataset.get(), 2);
  const auto ra = spr.Run(&a, 7);
  const auto rb = spr.Run(&b, 7);
  EXPECT_NE(ra.total_microtasks, rb.total_microtasks);
}

// ------------------------------------------------- Quality vs budget knob

TEST(BudgetQualityTest, LargerBudgetNeverMuchWorse) {
  auto dataset = data::MakeUniformLadder(60, 1.0, 6.0);
  double ndcg_small = 0.0, ndcg_large = 0.0;
  for (int r = 0; r < 6; ++r) {
    for (int64_t budget : {60, 2000}) {
      judgment::ComparisonOptions options = FastOptions();
      options.budget = budget;
      core::SprOptions spr_options;
      spr_options.comparison = options;
      core::Spr spr(spr_options);
      crowd::CrowdPlatform platform(dataset.get(), 900 + r);
      const auto result = spr.Run(&platform, 8);
      (budget == 60 ? ndcg_small : ndcg_large) +=
          metrics::Ndcg(*dataset, result.items, 8);
    }
  }
  // Fig. 13's story: accuracy needs a sufficient B.
  EXPECT_GT(ndcg_large, ndcg_small);
}

// ---------------------------------------------------- Worker-pool wrapper

TEST(WorkerPoolTest, ScaleOnlyDistortionPreservesSign) {
  auto dataset = data::MakeUniformLadder(10, 5.0, 1.0);
  std::vector<crowd::WorkerProfile> workers(3);
  workers[0].scale = 0.5;
  workers[1].scale = 1.0;
  workers[2].scale = 2.0;
  crowd::WorkerPoolOracle pool(dataset.get(), workers);
  util::Rng rng(4);
  // Item 9 vs item 0: gap 45, noise 1 -> sign always positive, any scale.
  for (int t = 0; t < 200; ++t) {
    EXPECT_GT(pool.PreferenceJudgment(9, 0, &rng), 0.0);
  }
}

TEST(WorkerPoolTest, SpammersAddVarianceNotBias) {
  auto dataset = data::MakeUniformLadder(4, 5.0, 1.0);
  crowd::WorkerPoolOptions options;
  options.spammer_fraction = 0.5;
  options.num_workers = 100;
  crowd::WorkerPoolOracle pool(dataset.get(), options, 9);
  util::Rng rng(10);
  double sum = 0.0;
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    sum += pool.PreferenceJudgment(3, 0, &rng);
  }
  const double mean = sum / trials;
  // Half the mass is the true signal (mean (15)/20 = 0.75), half is
  // uniform noise (mean 0) => overall ~0.375.
  EXPECT_NEAR(mean, 0.375, 0.03);
}

TEST(WorkerPoolTest, SprSurvivesMildDistortion) {
  auto dataset = data::MakeUniformLadder(50, 8.0, 4.0);
  crowd::WorkerPoolOptions pool_options;
  pool_options.scale_spread = 1.5;
  pool_options.max_noise = 0.05;
  pool_options.spammer_fraction = 0.05;
  crowd::WorkerPoolOracle pool(dataset.get(), pool_options, 12);
  crowd::CrowdPlatform platform(&pool, 13);
  core::SprOptions options;
  options.comparison = FastOptions();
  core::Spr spr(options);
  const auto result = spr.Run(&platform, 5);
  // Quality is scored against the clean ground truth.
  EXPECT_GT(metrics::Ndcg(*dataset, result.items, 5), 0.8);
}

TEST(WorkerPoolTest, GradedJudgmentsStayInRange) {
  auto dataset = data::MakeUniformLadder(6, 5.0, 2.0);
  crowd::WorkerPoolOptions options;
  options.scale_spread = 3.0;
  options.max_noise = 0.5;
  options.spammer_fraction = 0.2;
  crowd::WorkerPoolOracle pool(dataset.get(), options, 14);
  util::Rng rng(15);
  for (int t = 0; t < 500; ++t) {
    const double g = pool.GradedJudgment(t % 6, &rng);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1.0);
  }
}

// --------------------------------------------------- One-sided intervals

TEST(OneSidedTest, EffectiveAlphaDoubles) {
  judgment::ComparisonOptions options;
  options.alpha = 0.02;
  EXPECT_DOUBLE_EQ(judgment::EffectiveAlpha(options), 0.02);
  options.one_sided = true;
  EXPECT_DOUBLE_EQ(judgment::EffectiveAlpha(options), 0.04);
  options.alpha = 0.4;
  EXPECT_DOUBLE_EQ(judgment::EffectiveAlpha(options), 0.5);  // clamped
}

TEST(OneSidedTest, SavesWorkloadAtSameNominalConfidence) {
  data::GaussianDataset pair("pair", {0.0, 1.0}, 3.0, 10.0);
  int64_t symmetric = 0, one_sided = 0;
  for (bool half : {false, true}) {
    judgment::ComparisonOptions options = FastOptions();
    options.one_sided = half;
    options.budget = 1 << 20;
    options.batch_size = 1;
    crowd::CrowdPlatform platform(&pair, 21);
    int64_t total = 0;
    for (int t = 0; t < 60; ++t) {
      judgment::ComparisonSession session(1, 0, &options);
      session.RunToCompletion(&platform);
      total += session.workload();
    }
    (half ? one_sided : symmetric) = total;
  }
  EXPECT_LT(one_sided, symmetric);
}

TEST(OneSidedTest, AccuracyStillMeetsConfidence) {
  data::GaussianDataset pair("pair", {0.0, 1.0}, 2.0, 10.0);
  judgment::ComparisonOptions options = FastOptions();
  options.one_sided = true;
  options.alpha = 0.10;
  options.budget = 1 << 20;
  crowd::CrowdPlatform platform(&pair, 22);
  int correct = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    judgment::ComparisonSession session(1, 0, &options);
    if (session.RunToCompletion(&platform) ==
        crowd::ComparisonOutcome::kLeftWins) {
      ++correct;
    }
  }
  EXPECT_GE(correct / static_cast<double>(trials), 0.85);
}

// ------------------------------------------------------- Latency bounds

TEST(LatencyBoundsTest, HeapSortDominates) {
  const judgment::ComparisonOptions options = FastOptions();
  const core::LatencyBounds bounds =
      core::ComputeLatencyBounds(1000, 10, options, 80, 15);
  EXPECT_GT(bounds.heap_sort, 10 * bounds.tournament_tree);
  EXPECT_GT(bounds.tournament_tree, bounds.quick_select);
  EXPECT_GT(bounds.quick_select, 0.0);
  EXPECT_GT(bounds.spr, 0.0);
}

TEST(LatencyBoundsTest, MeasuredHeapSortWithinBound) {
  auto dataset = data::MakeUniformLadder(120, 2.0, 6.0);
  const judgment::ComparisonOptions options = FastOptions();
  crowd::CrowdPlatform platform(dataset.get(), 31);
  baselines::HeapSortTopK heap(options);
  const auto result = heap.Run(&platform, 10);
  const core::LatencyBounds bounds =
      core::ComputeLatencyBounds(120, 10, options, 1, 1);
  // The bound counts worst-case B/eta rounds per sequential comparison.
  EXPECT_LE(static_cast<double>(result.rounds), bounds.heap_sort * 4.0);
  EXPECT_GE(static_cast<double>(result.rounds), 100.0);
}

TEST(LatencyBoundsTest, SprMeasuredRoundsReasonable) {
  auto dataset = data::MakeUniformLadder(200, 4.0, 5.0);
  const judgment::ComparisonOptions options = FastOptions();
  const auto plan = core::PlanReferenceSelection(200, 10, 1.5, 200);
  const core::LatencyBounds bounds =
      core::ComputeLatencyBounds(200, 10, options, plan.x, plan.m);
  crowd::CrowdPlatform platform(dataset.get(), 32);
  core::SprOptions spr_options;
  spr_options.comparison = options;
  core::Spr spr(spr_options);
  const auto result = spr.Run(&platform, 10);
  // The best-case bound is optimistic (it ignores sorting corrections), but
  // the measured rounds must stay far below the sequential methods' scale.
  EXPECT_LT(static_cast<double>(result.rounds), bounds.heap_sort);
  (void)bounds;
}

// -------------------------------------------- Judgment reuse across phases

TEST(ReuseTest, ResortingTheAnswerIsFree) {
  auto dataset = data::MakeUniformLadder(40, 5.0, 3.0);
  crowd::CrowdPlatform platform(dataset.get(), 41);
  judgment::ComparisonCache cache(FastOptions());
  core::SprOptions options;
  options.comparison = FastOptions();
  core::Spr spr(options);

  std::vector<crowd::ItemId> items(40);
  for (int i = 0; i < 40; ++i) items[i] = i;
  std::vector<crowd::ItemId> answer =
      spr.RunOnItems(items, 5, &cache, &platform);
  const int64_t first_cost = platform.total_microtasks();
  const int64_t first_rounds = platform.rounds();
  // Every adjacent pair of the answer was confirmed during the ranking
  // phase, so re-sorting it through the same cache buys nothing
  // ("the results of comparisons are always reusable", Section 5.3).
  std::vector<crowd::ItemId> resorted = answer;
  core::ConfirmSort(&resorted, &cache, &platform);
  EXPECT_EQ(resorted, answer);
  EXPECT_EQ(platform.total_microtasks(), first_cost);
  EXPECT_EQ(platform.rounds(), first_rounds);
  // A second full query still reuses at least the partition judgments that
  // share the (random) new reference -- it can only be cheaper than or as
  // expensive as the first.
  spr.RunOnItems(items, 5, &cache, &platform);
  const int64_t second_cost = platform.total_microtasks() - first_cost;
  EXPECT_LE(second_cost, first_cost);
}

}  // namespace
}  // namespace crowdtopk
