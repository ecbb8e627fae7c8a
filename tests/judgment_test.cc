// Tests for the comparison process (Algorithms 1 & 5, Hoeffding baseline),
// the judgment cache, and graded aggregation.

#include <memory>
#include <vector>

#include "crowd/platform.h"
#include "data/gaussian_dataset.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "judgment/cache.h"
#include "judgment/comparison.h"
#include "judgment/graded.h"
#include "util/random.h"

namespace crowdtopk::judgment {
namespace {

ComparisonOptions DefaultOptions(Estimator estimator = Estimator::kStudent) {
  ComparisonOptions options;
  options.alpha = 0.05;
  options.budget = 1000;
  options.min_workload = 30;
  options.batch_size = 30;
  options.estimator = estimator;
  return options;
}

// Easy pair: scores 0 vs 10, noise 5 => preference mean 0.5, sd 0.25.
data::GaussianDataset EasyPair() {
  return data::GaussianDataset("easy", {0.0, 10.0}, 5.0, 20.0);
}

// Hard pair: scores 0 vs 0.1, noise 5 => mean 0.005, far below resolvable.
data::GaussianDataset HardPair() {
  return data::GaussianDataset("hard", {0.0, 0.1}, 5.0, 20.0);
}

TEST(ComparisonSessionTest, EasyPairResolvesQuicklyAndCorrectly) {
  data::GaussianDataset dataset = EasyPair();
  crowd::CrowdPlatform platform(&dataset, 1);
  ComparisonOptions options = DefaultOptions();
  ComparisonSession session(1, 0, &options);
  const auto outcome = session.RunToCompletion(&platform);
  EXPECT_EQ(outcome, crowd::ComparisonOutcome::kLeftWins);
  // mean/sd = 2 => a handful of batches at most.
  EXPECT_LE(session.workload(), 90);
  EXPECT_GE(session.workload(), options.min_workload);
  EXPECT_EQ(platform.total_microtasks(), session.workload());
}

TEST(ComparisonSessionTest, OrientationRespected) {
  data::GaussianDataset dataset = EasyPair();
  crowd::CrowdPlatform platform(&dataset, 2);
  ComparisonOptions options = DefaultOptions();
  ComparisonSession session(0, 1, &options);  // worse item left
  EXPECT_EQ(session.RunToCompletion(&platform),
            crowd::ComparisonOutcome::kRightWins);
  EXPECT_LT(session.Mean(), 0.0);
}

TEST(ComparisonSessionTest, HardPairExhaustsBudgetAsTie) {
  data::GaussianDataset dataset = HardPair();
  crowd::CrowdPlatform platform(&dataset, 3);
  ComparisonOptions options = DefaultOptions();
  options.budget = 300;
  ComparisonSession session(1, 0, &options);
  const auto outcome = session.RunToCompletion(&platform);
  EXPECT_EQ(outcome, crowd::ComparisonOutcome::kTie);
  EXPECT_TRUE(session.BudgetExhausted());
  EXPECT_EQ(session.workload(), 300);
}

TEST(ComparisonSessionTest, WorkloadNeverExceedsBudget) {
  data::GaussianDataset dataset = HardPair();
  ComparisonOptions options = DefaultOptions();
  options.budget = 100;  // not a multiple of batch 30
  crowd::CrowdPlatform platform(&dataset, 4);
  ComparisonSession session(0, 1, &options);
  session.RunToCompletion(&platform);
  EXPECT_EQ(session.workload(), 100);
}

TEST(ComparisonSessionTest, FirstStepBuysColdStartWorkload) {
  data::GaussianDataset dataset = EasyPair();
  ComparisonOptions options = DefaultOptions();
  options.min_workload = 40;
  crowd::CrowdPlatform platform(&dataset, 5);
  ComparisonSession session(1, 0, &options);
  session.Step(&platform, 1);  // asks for 1, must get I = 40
  EXPECT_EQ(session.workload(), 40);
}

TEST(ComparisonSessionTest, RoundsMatchBatchCount) {
  data::GaussianDataset dataset = HardPair();
  ComparisonOptions options = DefaultOptions();
  options.budget = 90;
  crowd::CrowdPlatform platform(&dataset, 6);
  ComparisonSession session(0, 1, &options);
  session.RunToCompletion(&platform);
  // 90 microtasks in batches of 30 = 3 rounds.
  EXPECT_EQ(platform.rounds(), 3);
}

// The headline statistical guarantee (Section 3.1): when a conclusion is
// reached, it is wrong with probability at most ~alpha.
TEST(ComparisonSessionTest, DecisionAccuracyMeetsConfidence) {
  data::GaussianDataset dataset("pair", {0.0, 1.0}, 2.0, 10.0);
  ComparisonOptions options = DefaultOptions();
  options.alpha = 0.10;
  options.budget = 1 << 20;  // B = infinity, as in Table 3
  crowd::CrowdPlatform platform(&dataset, 7);
  int correct = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    ComparisonSession session(1, 0, &options);
    const auto outcome = session.RunToCompletion(&platform);
    ASSERT_NE(outcome, crowd::ComparisonOutcome::kTie);
    if (outcome == crowd::ComparisonOutcome::kLeftWins) ++correct;
  }
  // Expected accuracy >= 1 - alpha = 0.90; allow Monte-Carlo slack.
  EXPECT_GE(correct / static_cast<double>(trials), 0.86);
}

TEST(ComparisonSessionTest, HigherConfidenceCostsMoreWorkload) {
  data::GaussianDataset dataset("pair", {0.0, 1.0}, 3.0, 10.0);
  int64_t workload_90 = 0, workload_99 = 0;
  for (double alpha : {0.10, 0.01}) {
    ComparisonOptions options = DefaultOptions();
    options.alpha = alpha;
    options.budget = 1 << 20;
    options.batch_size = 1;  // fine-grained stopping
    crowd::CrowdPlatform platform(&dataset, 8);
    int64_t total = 0;
    for (int t = 0; t < 50; ++t) {
      ComparisonSession session(1, 0, &options);
      session.RunToCompletion(&platform);
      total += session.workload();
    }
    (alpha == 0.10 ? workload_90 : workload_99) = total;
  }
  EXPECT_GT(workload_99, workload_90);
}

TEST(ComparisonSessionTest, SteinAgreesWithStudentOnEasyPair) {
  data::GaussianDataset dataset = EasyPair();
  for (Estimator estimator : {Estimator::kStudent, Estimator::kStein}) {
    ComparisonOptions options = DefaultOptions(estimator);
    crowd::CrowdPlatform platform(&dataset, 9);
    ComparisonSession session(1, 0, &options);
    EXPECT_EQ(session.RunToCompletion(&platform),
              crowd::ComparisonOutcome::kLeftWins);
  }
}

TEST(ComparisonSessionTest, SteinAccuracyMeetsConfidence) {
  data::GaussianDataset dataset("pair", {0.0, 1.0}, 2.0, 10.0);
  ComparisonOptions options = DefaultOptions(Estimator::kStein);
  options.alpha = 0.10;
  options.budget = 1 << 20;
  crowd::CrowdPlatform platform(&dataset, 10);
  int correct = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    ComparisonSession session(1, 0, &options);
    if (session.RunToCompletion(&platform) ==
        crowd::ComparisonOutcome::kLeftWins) {
      ++correct;
    }
  }
  EXPECT_GE(correct / static_cast<double>(trials), 0.86);
}

TEST(ComparisonSessionTest, HoeffdingUsesBinaryVotesAndCostsMore) {
  data::GaussianDataset dataset("pair", {0.0, 1.0}, 4.0, 10.0);
  // Preference: mean 0.1, sd 0.4 (mean/sd = 0.25) -- a realistically hard
  // comparison; in this regime the binary/Hoeffding workload is ~3x the
  // preference/Student workload (Appendix D; the ratio approaches
  // 2 ln(2/alpha) / (0.637 z^2) ~ 3 as mean/sd -> 0).
  int64_t student_workload = 0, hoeffding_workload = 0;
  for (Estimator estimator : {Estimator::kStudent, Estimator::kHoeffding}) {
    ComparisonOptions options = DefaultOptions(estimator);
    options.budget = 1 << 22;
    options.batch_size = 1;  // compare pure sample complexities
    crowd::CrowdPlatform platform(&dataset, 11);
    int64_t total = 0;
    for (int t = 0; t < 20; ++t) {
      ComparisonSession session(1, 0, &options);
      session.RunToCompletion(&platform);
      total += session.workload();
    }
    (estimator == Estimator::kStudent ? student_workload
                                      : hoeffding_workload) = total;
  }
  // Table 3's headline: binary+Hoeffding needs several times the workload.
  EXPECT_GT(hoeffding_workload, 2 * student_workload);
}

TEST(ComparisonSessionTest, AnytimeEstimatorDecidesEasyPairs) {
  data::GaussianDataset dataset = EasyPair();
  ComparisonOptions options = DefaultOptions(Estimator::kAnytime);
  crowd::CrowdPlatform platform(&dataset, 30);
  ComparisonSession session(1, 0, &options);
  EXPECT_EQ(session.RunToCompletion(&platform),
            crowd::ComparisonOutcome::kLeftWins);
}

TEST(ComparisonSessionTest, AnytimeNeverFalselyDecidesTiedPairInHorizon) {
  // The anytime guarantee: on an exactly tied pair, the probability of EVER
  // deciding within the horizon is <= alpha (checked with slack).
  data::GaussianDataset tied("tied", {1.0, 1.0}, 2.0, 10.0);
  ComparisonOptions options = DefaultOptions(Estimator::kAnytime);
  options.alpha = 0.05;
  options.budget = 1500;
  options.min_workload = 2;
  crowd::CrowdPlatform platform(&tied, 31);
  int decided = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    ComparisonSession session(0, 1, &options);
    while (!session.Finished()) session.Step(&platform, 64);
    if (session.outcome() != crowd::ComparisonOutcome::kTie) ++decided;
  }
  EXPECT_LE(decided, 10);  // alpha = 0.05 plus generous slack
}

TEST(ComparisonSessionTest, StudentPeekingExceedsNominalAlphaOnTiedPair) {
  // The flip side (the peeking problem Algorithm 1 accepts): the fixed-n
  // t-interval, checked after every sample, falsely decides a tied pair far
  // more often than alpha over a long horizon.
  data::GaussianDataset tied("tied", {1.0, 1.0}, 2.0, 10.0);
  ComparisonOptions options = DefaultOptions(Estimator::kStudent);
  options.alpha = 0.05;
  options.budget = 1500;
  options.min_workload = 2;
  crowd::CrowdPlatform platform(&tied, 32);
  int decided = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    ComparisonSession session(0, 1, &options);
    while (!session.Finished()) session.Step(&platform, 1);
    if (session.outcome() != crowd::ComparisonOutcome::kTie) ++decided;
  }
  EXPECT_GT(decided, 10);  // empirically ~25-35 of 100
}

TEST(ComparisonSessionTest, DegenerateZeroVarianceDecidesImmediately) {
  // Constant positive preference: sd = 0, must decide at the cold start.
  data::GaussianDataset dataset("const", {0.0, 5.0}, 0.0, 10.0);
  ComparisonOptions options = DefaultOptions();
  crowd::CrowdPlatform platform(&dataset, 12);
  ComparisonSession session(1, 0, &options);
  EXPECT_EQ(session.RunToCompletion(&platform),
            crowd::ComparisonOutcome::kLeftWins);
  EXPECT_EQ(session.workload(), options.min_workload);
}

TEST(ComparisonSessionTest, AddSampleForTestDrivesDecision) {
  ComparisonOptions options = DefaultOptions();
  options.min_workload = 5;
  ComparisonSession session(0, 1, &options);
  for (int i = 0; i < 5 && !session.Finished(); ++i) {
    session.AddSampleForTest(0.5 + 0.001 * i);
  }
  EXPECT_TRUE(session.Finished());
  EXPECT_EQ(session.outcome(), crowd::ComparisonOutcome::kLeftWins);
}

TEST(RunComparisonTest, ReportsWorkload) {
  data::GaussianDataset dataset = EasyPair();
  ComparisonOptions options = DefaultOptions();
  crowd::CrowdPlatform platform(&dataset, 13);
  int64_t workload = 0;
  const auto outcome = RunComparison(1, 0, options, &platform, &workload);
  EXPECT_EQ(outcome, crowd::ComparisonOutcome::kLeftWins);
  EXPECT_EQ(workload, platform.total_microtasks());
}

// ------------------------------------------------------------------ Cache

TEST(ComparisonCacheTest, CanonicalOrientation) {
  ComparisonOptions options = DefaultOptions();
  ComparisonCache cache(options);
  auto* session_a = cache.GetSession(7, 3);
  auto* session_b = cache.GetSession(3, 7);
  EXPECT_EQ(session_a, session_b);
  EXPECT_EQ(session_a->left(), 3);
  EXPECT_EQ(cache.num_pairs(), 1);
}

TEST(ComparisonCacheTest, CompareIsFreeOnceResolved) {
  data::GaussianDataset dataset = EasyPair();
  ComparisonCache cache(DefaultOptions());
  crowd::CrowdPlatform platform(&dataset, 14);
  const auto first = cache.Compare(1, 0, &platform);
  EXPECT_EQ(first, crowd::ComparisonOutcome::kLeftWins);
  const int64_t cost_after_first = platform.total_microtasks();
  const int64_t rounds_after_first = platform.rounds();
  // Re-asking (either orientation) costs nothing.
  EXPECT_EQ(cache.Compare(1, 0, &platform),
            crowd::ComparisonOutcome::kLeftWins);
  EXPECT_EQ(cache.Compare(0, 1, &platform),
            crowd::ComparisonOutcome::kRightWins);
  EXPECT_EQ(platform.total_microtasks(), cost_after_first);
  EXPECT_EQ(platform.rounds(), rounds_after_first);
}

TEST(ComparisonCacheTest, EstimatedMeanOrientation) {
  data::GaussianDataset dataset = EasyPair();
  ComparisonCache cache(DefaultOptions());
  crowd::CrowdPlatform platform(&dataset, 15);
  cache.Compare(0, 1, &platform);
  EXPECT_GT(cache.EstimatedMean(1, 0), 0.0);
  EXPECT_LT(cache.EstimatedMean(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(cache.EstimatedMean(1, 0), -cache.EstimatedMean(0, 1));
  EXPECT_GT(cache.EstimatedStdDev(0, 1), 0.0);
  EXPECT_GT(cache.Workload(0, 1), 0);
}

TEST(ComparisonCacheTest, UnsampledPairReportsZero) {
  ComparisonCache cache(DefaultOptions());
  EXPECT_EQ(cache.EstimatedMean(0, 1), 0.0);
  EXPECT_EQ(cache.EstimatedStdDev(0, 1), 0.0);
  EXPECT_EQ(cache.Workload(0, 1), 0);
  EXPECT_FALSE(cache.LikelyBetter(0, 1));
  EXPECT_EQ(cache.FindSession(0, 1), nullptr);
}

TEST(ComparisonCacheTest, LikelyBetterUsesConfirmedOutcome) {
  data::GaussianDataset dataset = EasyPair();
  ComparisonCache cache(DefaultOptions());
  crowd::CrowdPlatform platform(&dataset, 16);
  cache.Compare(0, 1, &platform);
  EXPECT_TRUE(cache.LikelyBetter(1, 0));
  EXPECT_FALSE(cache.LikelyBetter(0, 1));
}

// Sessions live in place in the cache's map: a pointer handed out by
// GetSession must keep pointing at the same, unchanged session after the
// map has grown through many rehashes.
TEST(ComparisonCacheTest, SessionPointersSurviveRehash) {
  ComparisonCache cache(DefaultOptions());
  std::vector<ComparisonSession*> first;
  for (ItemId j = 1; j <= 8; ++j) {
    ComparisonSession* session = cache.GetSession(j, 0);
    session->AddSampleForTest(0.1 * static_cast<double>(j));
    first.push_back(session);
  }
  for (ItemId i = 1; i < 80; ++i) {
    for (ItemId j = i + 1; j < 80; ++j) cache.GetSession(i, j);
  }
  ASSERT_EQ(cache.num_pairs(), 8 + 79 * 78 / 2);
  for (ItemId j = 1; j <= 8; ++j) {
    ComparisonSession* session = first[static_cast<size_t>(j - 1)];
    EXPECT_EQ(cache.GetSession(0, j), session);
    EXPECT_EQ(cache.FindSession(j, 0), session);
    EXPECT_EQ(session->left(), 0);
    EXPECT_EQ(session->right(), j);
    EXPECT_EQ(session->workload(), 1);
    EXPECT_DOUBLE_EQ(session->Mean(), 0.1 * static_cast<double>(j));
  }
}

// ------------------------------------------------------------------ Graded

TEST(GradedTest, MeanGradesSeparateItems) {
  data::GaussianDataset dataset("g", {0.0, 50.0, 100.0}, 5.0, 100.0);
  crowd::CrowdPlatform platform(&dataset, 17);
  const std::vector<crowd::ItemId> items = {0, 1, 2};
  const std::vector<double> grades =
      judgment::CollectMeanGrades(items, 60, 30, &platform);
  EXPECT_EQ(platform.total_microtasks(), 180);
  EXPECT_EQ(platform.rounds(), 2);  // 60 grades in batches of 30
  EXPECT_LT(grades[0], grades[1]);
  EXPECT_LT(grades[1], grades[2]);
  const auto ranked = judgment::RankByGrades(items, grades);
  EXPECT_EQ(ranked, (std::vector<crowd::ItemId>{2, 1, 0}));
}

TEST(GradedTest, RankByGradesBreaksTiesById) {
  const std::vector<crowd::ItemId> items = {5, 2, 9};
  const std::vector<double> grades = {0.5, 0.5, 0.5};
  EXPECT_EQ(judgment::RankByGrades(items, grades),
            (std::vector<crowd::ItemId>{2, 5, 9}));
}

}  // namespace
}  // namespace crowdtopk::judgment
