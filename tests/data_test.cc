// Tests for the dataset layer: ground truth bookkeeping, the four paper
// dataset generators, subsetting, and the statistical properties the
// algorithms rely on.

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/dataset.h"
#include "data/gaussian_dataset.h"
#include "data/generators.h"
#include "data/histogram_dataset.h"
#include "data/subset_dataset.h"
#include "gtest/gtest.h"
#include "stats/running_stats.h"
#include "util/random.h"

namespace crowdtopk::data {
namespace {

TEST(DatasetTest, TrueOrderSortsByScoreDescending) {
  GaussianDataset dataset("d", {3.0, 1.0, 2.0, 5.0}, 0.1, 10.0);
  const std::vector<ItemId> expected = {3, 0, 2, 1};
  EXPECT_EQ(dataset.TrueOrder(), expected);
  EXPECT_EQ(dataset.TrueRank(3), 1);
  EXPECT_EQ(dataset.TrueRank(1), 4);
  EXPECT_TRUE(dataset.TrueBetter(3, 0));
  EXPECT_FALSE(dataset.TrueBetter(1, 2));
}

TEST(DatasetTest, ScoreTiesBreakById) {
  GaussianDataset dataset("d", {1.0, 1.0, 2.0}, 0.1, 10.0);
  const std::vector<ItemId> expected = {2, 0, 1};
  EXPECT_EQ(dataset.TrueOrder(), expected);
}

TEST(DatasetTest, TrueTopK) {
  GaussianDataset dataset("d", {3.0, 1.0, 2.0, 5.0}, 0.1, 10.0);
  const std::vector<ItemId> top2 = dataset.TrueTopK(2);
  EXPECT_EQ(top2, (std::vector<ItemId>{3, 0}));
}

TEST(GaussianDatasetTest, PreferenceMeanTracksScoreGap) {
  GaussianDataset dataset("d", {0.0, 4.0}, 1.0, 10.0);
  util::Rng rng(1);
  stats::RunningStats v10;  // judgment of (better=1, worse=0)
  for (int t = 0; t < 20000; ++t) {
    v10.Add(dataset.PreferenceJudgment(1, 0, &rng));
  }
  // mean = (4 - 0) / 10 = 0.4; sd = 1/10 = 0.1.
  EXPECT_NEAR(v10.Mean(), 0.4, 0.01);
  EXPECT_NEAR(v10.StdDev(), 0.1, 0.01);
}

TEST(GaussianDatasetTest, PreferenceAntisymmetricInExpectation) {
  GaussianDataset dataset("d", {0.0, 2.0}, 1.0, 10.0);
  util::Rng rng(2);
  stats::RunningStats forward, backward;
  for (int t = 0; t < 20000; ++t) {
    forward.Add(dataset.PreferenceJudgment(1, 0, &rng));
    backward.Add(dataset.PreferenceJudgment(0, 1, &rng));
  }
  EXPECT_NEAR(forward.Mean(), -backward.Mean(), 0.01);
}

TEST(GaussianDatasetTest, JudgmentsClampedToUnitInterval) {
  GaussianDataset dataset("d", {0.0, 100.0}, 50.0, 10.0);  // extreme
  util::Rng rng(3);
  for (int t = 0; t < 1000; ++t) {
    const double v = dataset.PreferenceJudgment(1, 0, &rng);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

// ------------------------------------------------------------ Histogram

TEST(HistogramDatasetTest, WeightedRankFormula) {
  // votes >> K pulls toward the mean; votes << K pulls toward C.
  EXPECT_NEAR(WeightedRank(9.0, 1e9, 25000.0, 6.9), 9.0, 1e-3);
  EXPECT_NEAR(WeightedRank(9.0, 1.0, 25000.0, 6.9), 6.9, 1e-3);
  const double mid = WeightedRank(9.0, 25000.0, 25000.0, 6.9);
  EXPECT_NEAR(mid, (9.0 + 6.9) / 2.0, 1e-9);
  // k_constant == 0 disables the shrinkage.
  EXPECT_EQ(WeightedRank(4.2, 10.0, 0.0, 6.9), 4.2);
}

HistogramDataset MakeTwoItemHistogram() {
  // Item 0: all votes on rating 2. Item 1: all votes on rating 8.
  std::vector<VoteHistogram> histograms(2);
  histograms[0].counts = {0, 100, 0, 0, 0, 0, 0, 0, 0, 0};
  histograms[1].counts = {0, 0, 0, 0, 0, 0, 0, 100, 0, 0};
  HistogramDataset::Options options;
  options.bin_values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  return HistogramDataset("h", std::move(histograms), std::move(options));
}

TEST(HistogramDatasetTest, DegenerateHistogramsGiveExactJudgments) {
  HistogramDataset dataset = MakeTwoItemHistogram();
  util::Rng rng(4);
  // v(1, 0) = (8 - 2) / 9 always.
  for (int t = 0; t < 100; ++t) {
    EXPECT_DOUBLE_EQ(dataset.PreferenceJudgment(1, 0, &rng), 6.0 / 9.0);
  }
  EXPECT_EQ(dataset.TrueRank(1), 1);
  EXPECT_EQ(dataset.TrueRank(0), 2);
}

TEST(HistogramDatasetTest, GradedJudgmentNormalised) {
  HistogramDataset dataset = MakeTwoItemHistogram();
  util::Rng rng(5);
  EXPECT_DOUBLE_EQ(dataset.GradedJudgment(0, &rng), 1.0 / 9.0);
  EXPECT_DOUBLE_EQ(dataset.GradedJudgment(1, &rng), 7.0 / 9.0);
}

TEST(HistogramDatasetTest, SampleRatingFollowsHistogram) {
  std::vector<VoteHistogram> histograms(1);
  histograms[0].counts = {0, 0, 0, 0, 300, 0, 0, 0, 0, 100};  // 75% 5s, 25% 10s
  HistogramDataset::Options options;
  options.bin_values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  HistogramDataset dataset("h", std::move(histograms), std::move(options));
  util::Rng rng(6);
  int fives = 0, tens = 0;
  for (int t = 0; t < 40000; ++t) {
    const double r = dataset.SampleRating(0, &rng);
    if (r == 5.0) ++fives;
    if (r == 10.0) ++tens;
  }
  EXPECT_EQ(fives + tens, 40000);
  EXPECT_NEAR(fives / 40000.0, 0.75, 0.02);
}

// ----------------------------------------------------------- Generators

TEST(GeneratorsTest, SizesMatchTable5) {
  EXPECT_EQ(MakeImdbLike(1)->num_items(), 1225);
  EXPECT_EQ(MakeBookLike(1)->num_items(), 537);
  EXPECT_EQ(MakeJesterLike(1)->num_items(), 100);
  EXPECT_EQ(MakePhotoLike(1)->num_items(), 200);
  EXPECT_EQ(MakePeopleAgeLike(1)->num_items(), 100);
}

TEST(GeneratorsTest, DeterministicInSeed) {
  auto a = MakeImdbLike(77);
  auto b = MakeImdbLike(77);
  for (ItemId i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a->TrueScore(i), b->TrueScore(i));
  }
  auto c = MakeImdbLike(78);
  int identical = 0;
  for (ItemId i = 0; i < 50; ++i) {
    if (a->TrueScore(i) == c->TrueScore(i)) ++identical;
  }
  EXPECT_LT(identical, 5);
}

TEST(GeneratorsTest, ImdbJudgmentMeanHasCorrectSign) {
  auto imdb = MakeImdbLike(2);
  util::Rng rng(10);
  const ItemId best = imdb->TrueOrder().front();
  const ItemId worst = imdb->TrueOrder().back();
  stats::RunningStats stats;
  for (int t = 0; t < 5000; ++t) {
    stats.Add(imdb->PreferenceJudgment(best, worst, &rng));
  }
  EXPECT_GT(stats.Mean(), 0.05);
}

TEST(GeneratorsTest, JesterSameUserDifferencing) {
  auto jester = MakeJesterLike(3);
  util::Rng rng(11);
  for (int t = 0; t < 1000; ++t) {
    const double v = jester->PreferenceJudgment(0, 1, &rng);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
  // The best joke should beat the worst in expectation.
  const ItemId best = jester->TrueOrder().front();
  const ItemId worst = jester->TrueOrder().back();
  stats::RunningStats stats;
  for (int t = 0; t < 5000; ++t) {
    stats.Add(jester->PreferenceJudgment(best, worst, &rng));
  }
  EXPECT_GT(stats.Mean(), 0.02);
}

TEST(GeneratorsTest, PhotoRecordsAreLikertQuantised) {
  auto photo = MakePhotoLike(4);
  util::Rng rng(12);
  for (int t = 0; t < 500; ++t) {
    const double v = photo->PreferenceJudgment(3, 77, &rng);
    // 8 Likert levels mapped to {-1, -5/7, ..., 5/7, 1}.
    const double level = (v + 1.0) / 2.0 * 7.0;
    EXPECT_NEAR(level, std::round(level), 1e-9);
  }
}

TEST(GeneratorsTest, PhotoOrientationAntisymmetric) {
  auto photo = MakePhotoLike(4);
  EXPECT_GE(photo->NumRecords(10, 20), 10);
  util::Rng a(5), b(5);
  // Same RNG stream: v(i,j) must be exactly -v(j,i).
  const double forward = photo->PreferenceJudgment(10, 20, &a);
  const double backward = photo->PreferenceJudgment(20, 10, &b);
  EXPECT_DOUBLE_EQ(forward, -backward);
}

TEST(GeneratorsTest, PeopleAgeYoungestRanksFirst) {
  auto people = MakePeopleAgeLike(6);
  // Item 0 has age 1 (the youngest) and must be the true best.
  EXPECT_EQ(people->TrueOrder().front(), 0);
  EXPECT_EQ(people->TrueOrder().back(), 99);
}

TEST(GeneratorsTest, UniformLadderScores) {
  auto ladder = MakeUniformLadder(10, 2.0, 1.0);
  EXPECT_EQ(ladder->num_items(), 10);
  EXPECT_EQ(ladder->TrueOrder().front(), 9);
  EXPECT_DOUBLE_EQ(ladder->TrueScore(4), 8.0);
}

TEST(GeneratorsTest, MakeByNameDispatch) {
  EXPECT_EQ(MakeByName("imdb", 1)->name(), "IMDb");
  EXPECT_EQ(MakeByName("book", 1)->name(), "Book");
  EXPECT_EQ(MakeByName("jester", 1)->name(), "Jester");
  EXPECT_EQ(MakeByName("photo", 1)->name(), "Photo");
  EXPECT_EQ(MakeByName("peopleage", 1)->name(), "PeopleAge");
  EXPECT_EQ(MakeByName("nope", 1), nullptr);
}

// --------------------------------------------------------------- Subset

TEST(SubsetDatasetTest, RemapsScoresAndJudgments) {
  GaussianDataset parent("p", {1.0, 5.0, 3.0, 4.0}, 0.5, 10.0);
  SubsetDataset subset(&parent, {1, 3});
  EXPECT_EQ(subset.num_items(), 2);
  EXPECT_DOUBLE_EQ(subset.TrueScore(0), 5.0);
  EXPECT_DOUBLE_EQ(subset.TrueScore(1), 4.0);
  EXPECT_EQ(subset.TrueOrder().front(), 0);
  EXPECT_EQ(subset.ToParentId(1), 3);
  util::Rng a(9), b(9);
  EXPECT_DOUBLE_EQ(subset.PreferenceJudgment(0, 1, &a),
                   parent.PreferenceJudgment(1, 3, &b));
}

TEST(SubsetDatasetTest, RandomSubsetHasRequestedSize) {
  auto parent = MakeUniformLadder(50, 1.0, 1.0);
  util::Rng rng(14);
  auto subset = RandomSubset(parent.get(), 20, &rng);
  EXPECT_EQ(subset->num_items(), 20);
  // All parent ids distinct.
  std::vector<ItemId> ids;
  for (ItemId i = 0; i < 20; ++i) ids.push_back(subset->ToParentId(i));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

}  // namespace
}  // namespace crowdtopk::data
