// Property-based sweeps over the library's core statistical guarantees:
// the comparison process hits its confidence level across (alpha, effect
// size); workloads scale the right way; sorting is exact when comparisons
// are; SPR is exact across an (N, k) grid on separable data.

#include <cmath>
#include <memory>
#include <set>
#include <tuple>

#include "core/sorting.h"
#include "core/spr.h"
#include "crowd/platform.h"
#include "data/gaussian_dataset.h"
#include "data/generators.h"
#include "fault/injector.h"
#include "gtest/gtest.h"
#include "judgment/cache.h"
#include "judgment/comparison.h"

namespace crowdtopk {
namespace {

// --------------- COMP accuracy across alpha, effect size, and estimator

// Params: (alpha, effect = mean/sd of one judgment, estimator).
class ComparisonGuarantee
    : public ::testing::TestWithParam<
          std::tuple<double, double, judgment::Estimator>> {};

TEST_P(ComparisonGuarantee, AccuracyAtLeastConfidence) {
  const double alpha = std::get<0>(GetParam());
  const double effect = std::get<1>(GetParam());
  // Judgment ~ N(0.1, (0.1/effect)^2) on the preference scale.
  data::GaussianDataset pair("pair", {0.0, 1.0}, 1.0 / effect, 10.0);
  judgment::ComparisonOptions options;
  options.alpha = alpha;
  options.budget = 1 << 20;
  options.min_workload = 30;
  options.batch_size = 30;
  options.estimator = std::get<2>(GetParam());
  crowd::CrowdPlatform platform(&pair,
                                17 + static_cast<uint64_t>(effect * 100));
  int correct = 0;
  const int trials = 150;
  for (int t = 0; t < trials; ++t) {
    judgment::ComparisonSession session(1, 0, &options);
    if (session.RunToCompletion(&platform) ==
        crowd::ComparisonOutcome::kLeftWins) {
      ++correct;
    }
  }
  // 1 - alpha minus Monte-Carlo slack (3 sigma of a binomial proportion).
  const double slack =
      3.0 * std::sqrt(alpha * (1 - alpha) / trials) + 0.01;
  EXPECT_GE(correct / static_cast<double>(trials), 1.0 - alpha - slack)
      << "alpha=" << alpha << " effect=" << effect;
}

INSTANTIATE_TEST_SUITE_P(
    StudentSweep, ComparisonGuarantee,
    ::testing::Combine(::testing::Values(0.2, 0.1, 0.05, 0.02),
                       ::testing::Values(0.3, 0.6, 1.5),
                       ::testing::Values(judgment::Estimator::kStudent)));

// Algorithm 5's guarantee is the same 1 - alpha, so SteinComp gets the
// identical sweep rather than the single agreement spot-check below.
INSTANTIATE_TEST_SUITE_P(
    SteinSweep, ComparisonGuarantee,
    ::testing::Combine(::testing::Values(0.2, 0.1, 0.05, 0.02),
                       ::testing::Values(0.3, 0.6, 1.5),
                       ::testing::Values(judgment::Estimator::kStein)));

// ------------------------- COMP degradation under a spammer-ridden crowd

// Params: fraction of spammer workers.
class FaultyComparisonGuarantee : public ::testing::TestWithParam<double> {};

TEST_P(FaultyComparisonGuarantee, DegradesGracefullyUnderSpammers) {
  const double spammer_fraction = GetParam();
  const double alpha = 0.05;
  data::GaussianDataset pair("pair", {0.0, 1.0}, 1.0 / 0.6, 10.0);
  fault::FaultPlan plan;
  plan.spammer_fraction = spammer_fraction;
  const fault::FaultInjectionOracle faulty(&pair, plan, 4242);

  judgment::ComparisonOptions options;
  options.alpha = alpha;
  options.budget = 1 << 20;
  options.min_workload = 30;
  options.batch_size = 30;

  const int trials = 120;
  const auto accuracy_and_workload = [&](const crowd::JudgmentOracle* oracle,
                                         double* mean_workload) {
    crowd::CrowdPlatform platform(oracle, 91);
    int correct = 0;
    double workload = 0.0;
    for (int t = 0; t < trials; ++t) {
      judgment::ComparisonSession session(1, 0, &options);
      const crowd::ComparisonOutcome outcome =
          session.RunToCompletion(&platform);
      // Graceful degradation, part 1: every session still terminates and
      // honours the budget cap even when the crowd misbehaves.
      EXPECT_TRUE(session.Finished());
      EXPECT_LE(session.workload(), options.budget);
      correct += outcome == crowd::ComparisonOutcome::kLeftWins;
      workload += static_cast<double>(session.workload());
    }
    *mean_workload = workload / trials;
    return static_cast<double>(correct) / trials;
  };

  double clean_workload = 0.0, faulty_workload = 0.0;
  const double clean_accuracy = accuracy_and_workload(&pair, &clean_workload);
  const double faulty_accuracy =
      accuracy_and_workload(&faulty, &faulty_workload);

  // Part 2: spam is mean-zero noise, so COMP should pay more microtasks
  // rather than flip its answer — accuracy sags but stays far above chance.
  EXPECT_GE(clean_accuracy, 1.0 - alpha - 0.06);
  EXPECT_GE(faulty_accuracy, 1.0 - alpha - spammer_fraction - 0.1)
      << "spammer_fraction=" << spammer_fraction;
  // Part 3: the extra variance is paid for in workload, visibly so.
  EXPECT_GT(faulty_workload, clean_workload)
      << "spammer_fraction=" << spammer_fraction;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultyComparisonGuarantee,
                         ::testing::Values(0.1, 0.3));

// ----------------------------------- Workload monotone in difficulty

TEST(WorkloadScalingTest, HarderPairsCostMore) {
  judgment::ComparisonOptions options;
  options.alpha = 0.05;
  options.budget = 1 << 20;
  options.batch_size = 1;
  double previous = 0.0;
  for (double effect : {2.0, 1.0, 0.5, 0.25}) {
    data::GaussianDataset pair("pair", {0.0, 1.0}, 1.0 / effect, 10.0);
    crowd::CrowdPlatform platform(&pair, 23);
    double total = 0.0;
    for (int t = 0; t < 40; ++t) {
      judgment::ComparisonSession session(1, 0, &options);
      session.RunToCompletion(&platform);
      total += static_cast<double>(session.workload());
    }
    EXPECT_GE(total, previous) << "effect=" << effect;
    previous = total;
  }
}

TEST(WorkloadScalingTest, InverseSquareLaw) {
  // n ~ (z sigma / mu)^2: quadrupling the difficulty ratio should raise the
  // mean workload by roughly 16x (modulo the cold-start floor).
  judgment::ComparisonOptions options;
  options.alpha = 0.05;
  options.budget = 1 << 22;
  options.min_workload = 5;  // lower the floor to expose the law
  options.batch_size = 1;
  auto mean_workload = [&](double effect, uint64_t seed) {
    data::GaussianDataset pair("pair", {0.0, 1.0}, 1.0 / effect, 10.0);
    crowd::CrowdPlatform platform(&pair, seed);
    double total = 0.0;
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
      judgment::ComparisonSession session(1, 0, &options);
      session.RunToCompletion(&platform);
      total += static_cast<double>(session.workload());
    }
    return total / trials;
  };
  const double easy = mean_workload(0.4, 31);
  const double hard = mean_workload(0.1, 32);
  EXPECT_GT(hard / easy, 6.0);   // well above linear
  EXPECT_LT(hard / easy, 40.0);  // and in the right ballpark of 16x
}

// ------------------------------------ ConfirmSort exactness sweep

class SortExactness : public ::testing::TestWithParam<int> {};

TEST_P(SortExactness, SortsRandomPermutationsOfSeparableItems) {
  const int n = GetParam();
  auto dataset = data::MakeUniformLadder(n, 10.0, 1.5);
  judgment::ComparisonOptions options;
  options.alpha = 0.02;
  options.budget = 2000;
  options.batch_size = 30;
  for (int trial = 0; trial < 4; ++trial) {
    crowd::CrowdPlatform platform(dataset.get(),
                                  1000 + trial * 37 + n);
    judgment::ComparisonCache cache(options);
    std::vector<crowd::ItemId> items(n);
    for (int i = 0; i < n; ++i) items[i] = i;
    platform.rng()->Shuffle(&items);
    core::ConfirmSort(&items, &cache, &platform);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(items[i], n - 1 - i) << "n=" << n << " pos=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SortExactness,
                         ::testing::Values(2, 3, 5, 9, 16, 25));

// ----------------------------------------- SPR exactness (N, k) grid

class SprGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SprGrid, ExactOnSeparableData) {
  const int n = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  if (k > n) GTEST_SKIP();
  auto dataset = data::MakeUniformLadder(n, 10.0, 2.0);
  core::SprOptions options;
  options.comparison.alpha = 0.02;
  options.comparison.budget = 2000;
  options.comparison.batch_size = 30;
  core::Spr spr(options);
  crowd::CrowdPlatform platform(dataset.get(), 42 + n * 100 + k);
  const core::TopKResult result = spr.Run(&platform, k);
  ASSERT_EQ(result.items.size(), static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    EXPECT_EQ(result.items[p], n - 1 - p) << "n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SprGrid,
                         ::testing::Combine(::testing::Values(10, 25, 60,
                                                              120),
                                            ::testing::Values(1, 3, 8, 20)));

// ------------------------------- Estimator agreement (Student ~ Stein)

TEST(EstimatorAgreementTest, SteinWithinTwoXOfStudent) {
  judgment::ComparisonOptions student;
  student.alpha = 0.05;
  student.budget = 1 << 20;
  student.batch_size = 1;
  judgment::ComparisonOptions stein = student;
  stein.estimator = judgment::Estimator::kStein;

  data::GaussianDataset pair("pair", {0.0, 1.0}, 2.5, 10.0);
  double workloads[2] = {0.0, 0.0};
  int index = 0;
  for (const auto* options : {&student, &stein}) {
    crowd::CrowdPlatform platform(&pair, 77);
    for (int t = 0; t < 50; ++t) {
      judgment::ComparisonSession session(1, 0, options);
      session.RunToCompletion(&platform);
      workloads[index] += static_cast<double>(session.workload());
    }
    ++index;
  }
  EXPECT_LT(workloads[1], 2.0 * workloads[0]);
  EXPECT_LT(workloads[0], 2.0 * workloads[1]);
}

// ------------------------------------- Budget cap invariant everywhere

class BudgetCap : public ::testing::TestWithParam<int> {};

TEST_P(BudgetCap, NoSessionEverExceedsB) {
  const int budget = GetParam();
  auto dataset = data::MakeUniformLadder(20, 0.2, 5.0);  // very hard
  judgment::ComparisonOptions options;
  options.alpha = 0.02;
  options.budget = budget;
  options.min_workload = std::min<int64_t>(30, budget);
  options.batch_size = 30;
  crowd::CrowdPlatform platform(dataset.get(), 5 + budget);
  judgment::ComparisonCache cache(options);
  core::SprOptions spr_options;
  spr_options.comparison = options;
  core::Spr spr(spr_options);
  std::vector<crowd::ItemId> items(20);
  for (int i = 0; i < 20; ++i) items[i] = i;
  spr.RunOnItems(items, 5, &cache, &platform);
  for (int i = 0; i < 20; ++i) {
    for (int j = i + 1; j < 20; ++j) {
      EXPECT_LE(cache.Workload(i, j), budget);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BudgetCap,
                         ::testing::Values(30, 45, 100, 300));

}  // namespace
}  // namespace crowdtopk
