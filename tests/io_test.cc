// Tests for dataset CSV import/export.

#include <cstdio>
#include <memory>
#include <string>

#include "data/generators.h"
#include "data/io.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace crowdtopk::data {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "crowdtopk_io_test_" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
}

TEST(HistogramIoTest, RoundTripPreservesJudgmentDistribution) {
  auto original = MakeBookLike(5);
  const std::string path = TempPath("hist.csv");
  ASSERT_TRUE(SaveHistogramCsv(*original, path).ok());

  HistogramDataset::Options options;
  options.bin_values = original->bin_values();
  auto loaded = LoadHistogramCsv(path, "Book", options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->num_items(), original->num_items());
  // Ground truth identical (same histograms, same weighted-rank options).
  for (ItemId i = 0; i < original->num_items(); ++i) {
    EXPECT_NEAR((*loaded)->TrueScore(i), original->TrueScore(i), 1e-6);
  }
  // Same RNG stream => identical sampled judgments.
  util::Rng a(9), b(9);
  for (int t = 0; t < 200; ++t) {
    EXPECT_DOUBLE_EQ(original->PreferenceJudgment(3, 40, &a),
                     (*loaded)->PreferenceJudgment(3, 40, &b));
  }
  std::remove(path.c_str());
}

TEST(HistogramIoTest, RejectsBadColumnCount) {
  const std::string path = TempPath("bad_cols.csv");
  HistogramDataset::Options options;
  options.bin_values = {1.0, 2.0};
  // A short row, a non-finite vote count, and a row whose votes sum to 0
  // are each refused with the offending line named.
  for (const std::string bad_row : {"1,3", "1,nan,2", "1,inf,2", "1,0,0"}) {
    WriteFile(path, "item_id,votes_bin1,votes_bin2\n0,1,2\n" + bad_row + "\n");
    const auto result = LoadHistogramCsv(path, "x", options);
    ASSERT_FALSE(result.ok()) << bad_row;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(bad_row), std::string::npos)
        << result.status().message();
  }
  std::remove(path.c_str());
}

TEST(HistogramIoTest, RejectsSparseIds) {
  const std::string path = TempPath("sparse.csv");
  WriteFile(path, "item_id,votes_bin1,votes_bin2\n0,1,2\n2,3,4\n");
  HistogramDataset::Options options;
  options.bin_values = {1.0, 2.0};
  EXPECT_FALSE(LoadHistogramCsv(path, "x", options).ok());
  std::remove(path.c_str());
}

TEST(HistogramIoTest, MissingFileIsNotFound) {
  HistogramDataset::Options options;
  options.bin_values = {1.0, 2.0};
  const auto result =
      LoadHistogramCsv("/nonexistent/nope.csv", "x", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST(ScoresIoTest, RoundTrip) {
  auto dataset = MakeJesterLike(2);
  const std::string path = TempPath("scores.csv");
  ASSERT_TRUE(SaveScoresCsv(*dataset, path).ok());
  const auto scores = LoadScoresCsv(path);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(static_cast<int64_t>(scores->size()), dataset->num_items());
  for (ItemId i = 0; i < dataset->num_items(); ++i) {
    EXPECT_NEAR((*scores)[i], dataset->TrueScore(i), 1e-9);
  }
  std::remove(path.c_str());
}

TEST(ScoresIoTest, RejectsNonFiniteScores) {
  const std::string path = TempPath("bad_scores.csv");
  for (const std::string bad_row : {"1,nan", "1,-inf", "1,x"}) {
    WriteFile(path, "item_id,score\n0,1.5\n" + bad_row + "\n");
    const auto scores = LoadScoresCsv(path);
    ASSERT_FALSE(scores.ok()) << bad_row;
    EXPECT_EQ(scores.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(scores.status().message().find(bad_row), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ScoresIoTest, CommentsAndHeaderSkipped) {
  const std::string path = TempPath("commented.csv");
  WriteFile(path, "# a comment\nitem_id,score\n0,1.5\n1,2.5\n");
  const auto scores = LoadScoresCsv(path);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(scores->size(), 2u);
  EXPECT_DOUBLE_EQ((*scores)[1], 2.5);
  std::remove(path.c_str());
}

TEST(PairwiseIoTest, RoundTripPreservesRecords) {
  auto original = MakePhotoLike(3);
  const std::string path = TempPath("pairs.csv");
  ASSERT_TRUE(SavePairwiseCsv(*original, path).ok());
  std::vector<double> scores;
  for (ItemId i = 0; i < original->num_items(); ++i) {
    scores.push_back(original->TrueScore(i));
  }
  auto loaded = LoadPairwiseCsv(path, "Photo", scores);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->num_items(), original->num_items());
  EXPECT_EQ((*loaded)->RecordsFor(10, 20), original->RecordsFor(10, 20));
  EXPECT_EQ((*loaded)->RecordsFor(0, 199), original->RecordsFor(0, 199));
  EXPECT_EQ((*loaded)->TrueRank(5), original->TrueRank(5));
  std::remove(path.c_str());
}

TEST(PairwiseIoTest, OrientationNormalised) {
  const std::string path = TempPath("orient.csv");
  WriteFile(path,
            "left_id,right_id,preference\n"
            "1,0,0.5\n"
            "0,1,-0.25\n");
  auto loaded = LoadPairwiseCsv(path, "x", {1.0, 2.0});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Both records stored oriented as v(0, 1): -0.5 and -0.25.
  const std::vector<double> expected = {-0.5, -0.25};
  EXPECT_EQ((*loaded)->RecordsFor(0, 1), expected);
  std::remove(path.c_str());
}

TEST(PairwiseIoTest, RejectsMissingPairsAndBadValues) {
  const std::string path = TempPath("missing.csv");
  WriteFile(path, "left_id,right_id,preference\n0,1,0.5\n");
  // 3 items but only pair (0,1) present.
  EXPECT_FALSE(LoadPairwiseCsv(path, "x", {1.0, 2.0, 3.0}).ok());
  WriteFile(path, "left_id,right_id,preference\n0,1,1.5\n");
  EXPECT_FALSE(LoadPairwiseCsv(path, "x", {1.0, 2.0}).ok());
  WriteFile(path, "left_id,right_id,preference\n0,0,0.5\n");
  EXPECT_FALSE(LoadPairwiseCsv(path, "x", {1.0, 2.0}).ok());
  // A non-finite preference is refused, naming the line.
  WriteFile(path, "left_id,right_id,preference\n0,1,nan\n");
  const auto nan_preference = LoadPairwiseCsv(path, "x", {1.0, 2.0});
  ASSERT_FALSE(nan_preference.ok());
  EXPECT_NE(nan_preference.status().message().find("0,1,nan"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crowdtopk::data
