// Tests for util: Status/StatusOr, deterministic RNG, tables, env options.

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/env.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table.h"

namespace crowdtopk::util {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "k must be positive");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: k must be positive");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::OutOfRange("x").code(),
      Status::FailedPrecondition("x").code(),
      Status::ResourceExhausted("x").code(), Status::Internal("x").code(),
      Status::NotFound("x").code()};
  EXPECT_EQ(codes.size(), 6u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("no such pair"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("payload"));
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

Status FailsThenPropagates() {
  CROWDTOPK_RETURN_IF_ERROR(Status::OutOfRange("inner"));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  const Status status = FailsThenPropagates();
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(17);
  std::map<int64_t, int> counts;
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) ++counts[rng.UniformInt(6)];
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [value, count] : counts) {
    EXPECT_GE(value, 0);
    EXPECT_LT(value, 6);
    // Each bucket within 10% of the expectation.
    EXPECT_NEAR(count, trials / 6.0, trials / 6.0 * 0.1);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(8);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(11);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::map<int64_t, int> counts;
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts.count(1), 0u);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(21);
  Rng child = parent.Fork();
  // Child stream should not mirror the parent stream.
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, CsvRoundTrip) {
  TablePrinter table("demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"with,comma", "2"});
  const std::string path = ::testing::TempDir() + "crowdtopk_table_test.csv";
  ASSERT_TRUE(table.WriteCsv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[256];
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_STREQ(buffer, "name,value\n");
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_STREQ(buffer, "a,1\n");
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_STREQ(buffer, "\"with,comma\",2\n");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1000.0, 0), "1000");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(TableTest, RowCountTracked) {
  TablePrinter table("");
  table.SetHeader({"x"});
  EXPECT_EQ(table.num_rows(), 0u);
  table.AddRow({"1"});
  table.AddRow({"2"});
  EXPECT_EQ(table.num_rows(), 2u);
}

// ------------------------------------------------------------------ Env

TEST(EnvTest, IntFallbackAndParse) {
  ::unsetenv("CROWDTOPK_TEST_INT");
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_INT", 7), 7);
  ::setenv("CROWDTOPK_TEST_INT", "42", 1);
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_INT", 7), 42);
  ::setenv("CROWDTOPK_TEST_INT", "junk", 1);
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_INT", 7), 7);
  ::unsetenv("CROWDTOPK_TEST_INT");
}

TEST(EnvTest, DoubleFallbackAndParse) {
  ::unsetenv("CROWDTOPK_TEST_DBL");
  EXPECT_EQ(GetEnvDouble("CROWDTOPK_TEST_DBL", 1.5), 1.5);
  ::setenv("CROWDTOPK_TEST_DBL", "0.25", 1);
  EXPECT_EQ(GetEnvDouble("CROWDTOPK_TEST_DBL", 1.5), 0.25);
  ::unsetenv("CROWDTOPK_TEST_DBL");
}

TEST(EnvTest, IntRejectsTrailingGarbage) {
  // "4x" must not silently parse as 4 (a typo'd CROWDTOPK_JOBS=4x would
  // otherwise change thread counts without anyone noticing).
  ::setenv("CROWDTOPK_TEST_INT_GARBAGE", "4x", 1);
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_INT_GARBAGE", 7), 7);
  ::setenv("CROWDTOPK_TEST_INT_GARBAGE", "12 cores", 1);
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_INT_GARBAGE", 7), 7);
  // Trailing whitespace is not garbage.
  ::setenv("CROWDTOPK_TEST_INT_GARBAGE", "42 ", 1);
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_INT_GARBAGE", 7), 42);
  ::setenv("CROWDTOPK_TEST_INT_GARBAGE", "-3", 1);
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_INT_GARBAGE", 7), -3);
  ::unsetenv("CROWDTOPK_TEST_INT_GARBAGE");
}

TEST(EnvTest, DoubleRejectsTrailingGarbage) {
  ::setenv("CROWDTOPK_TEST_DBL_GARBAGE", "0.25s", 1);
  EXPECT_EQ(GetEnvDouble("CROWDTOPK_TEST_DBL_GARBAGE", 1.5), 1.5);
  ::setenv("CROWDTOPK_TEST_DBL_GARBAGE", "junk", 1);
  EXPECT_EQ(GetEnvDouble("CROWDTOPK_TEST_DBL_GARBAGE", 1.5), 1.5);
  ::setenv("CROWDTOPK_TEST_DBL_GARBAGE", "1e-3\t", 1);
  EXPECT_EQ(GetEnvDouble("CROWDTOPK_TEST_DBL_GARBAGE", 1.5), 1e-3);
  ::unsetenv("CROWDTOPK_TEST_DBL_GARBAGE");
}

TEST(EnvTest, OutOfRangeValuesFallBack) {
  // strtoll/strtod clamp and set ERANGE on overflow; a clamped value is a
  // typo, not a request for INT64_MAX, so the fallback must win.
  ::setenv("CROWDTOPK_TEST_INT_RANGE", "99999999999999999999999", 1);
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_INT_RANGE", 7), 7);
  ::setenv("CROWDTOPK_TEST_INT_RANGE", "-99999999999999999999999", 1);
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_INT_RANGE", 7), 7);
  ::unsetenv("CROWDTOPK_TEST_INT_RANGE");

  ::setenv("CROWDTOPK_TEST_DBL_RANGE", "1e999", 1);
  EXPECT_EQ(GetEnvDouble("CROWDTOPK_TEST_DBL_RANGE", 1.5), 1.5);
  ::unsetenv("CROWDTOPK_TEST_DBL_RANGE");
}

TEST(EnvTest, EmptyValueMeansUnset) {
  ::setenv("CROWDTOPK_TEST_EMPTY", "", 1);
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_EMPTY", 7), 7);
  EXPECT_EQ(GetEnvDouble("CROWDTOPK_TEST_EMPTY", 1.5), 1.5);
  EXPECT_EQ(GetEnvString("CROWDTOPK_TEST_EMPTY", "fallback"), "fallback");
  EXPECT_TRUE(GetEnvBool("CROWDTOPK_TEST_EMPTY", true));
  // Empty is silent — no strict-parse warning.
  const int64_t before = internal::EnvWarningCountForTest();
  EXPECT_EQ(GetEnvInt64("CROWDTOPK_TEST_EMPTY", 7), 7);
  EXPECT_EQ(internal::EnvWarningCountForTest(), before);
  ::unsetenv("CROWDTOPK_TEST_EMPTY");
}

TEST(EnvTest, BadValueWarnsOncePerVariable) {
  const int64_t before = internal::EnvWarningCountForTest();
  ::setenv("CROWDTOPK_TEST_WARN_ONCE", "junk", 1);
  GetEnvInt64("CROWDTOPK_TEST_WARN_ONCE", 7);
  EXPECT_EQ(internal::EnvWarningCountForTest(), before + 1);
  // Re-reading the same bad variable must not spam: a knob consulted in a
  // per-round loop would otherwise flood stderr.
  GetEnvInt64("CROWDTOPK_TEST_WARN_ONCE", 7);
  GetEnvDouble("CROWDTOPK_TEST_WARN_ONCE", 1.5);
  EXPECT_EQ(internal::EnvWarningCountForTest(), before + 1);
  // A different variable gets its own single warning.
  ::setenv("CROWDTOPK_TEST_WARN_TWICE", "alsojunk", 1);
  GetEnvDouble("CROWDTOPK_TEST_WARN_TWICE", 1.5);
  EXPECT_EQ(internal::EnvWarningCountForTest(), before + 2);
  ::unsetenv("CROWDTOPK_TEST_WARN_ONCE");
  ::unsetenv("CROWDTOPK_TEST_WARN_TWICE");
}

TEST(EnvTest, ResetClearsTheWarnOnceRegistry) {
  ::setenv("CROWDTOPK_TEST_WARN_RESET", "junk", 1);
  GetEnvInt64("CROWDTOPK_TEST_WARN_RESET", 7);  // registry now holds the name
  const int64_t before = internal::EnvWarningCountForTest();
  GetEnvInt64("CROWDTOPK_TEST_WARN_RESET", 7);
  EXPECT_EQ(internal::EnvWarningCountForTest(), before);  // still suppressed

  // Reset clears the per-variable registry but not the running counter, so
  // the same bad value warns again — the isolation hook tests rely on for
  // order-independent warn-once assertions.
  internal::ResetEnvWarningsForTest();
  GetEnvInt64("CROWDTOPK_TEST_WARN_RESET", 7);
  EXPECT_EQ(internal::EnvWarningCountForTest(), before + 1);
  GetEnvInt64("CROWDTOPK_TEST_WARN_RESET", 7);
  EXPECT_EQ(internal::EnvWarningCountForTest(), before + 1);
  ::unsetenv("CROWDTOPK_TEST_WARN_RESET");
}

TEST(EnvTest, StringFallback) {
  ::unsetenv("CROWDTOPK_TEST_STR");
  EXPECT_EQ(GetEnvString("CROWDTOPK_TEST_STR", "imdb"), "imdb");
  ::setenv("CROWDTOPK_TEST_STR", "book", 1);
  EXPECT_EQ(GetEnvString("CROWDTOPK_TEST_STR", "imdb"), "book");
  ::unsetenv("CROWDTOPK_TEST_STR");
}

// The CROWDTOPK_SHARD_* knobs follow the same strict-parse contract as
// the other numeric ones: a typo warns once and falls back to the default.
TEST(EnvTest, ShardKnobsParseStrictly) {
  internal::ResetEnvWarningsForTest();
  const int64_t before = internal::EnvWarningCountForTest();
  ::setenv("CROWDTOPK_SHARDS", "0", 1);
  EXPECT_EQ(ShardCount(), 1);  // clamped, not an error
  ::setenv("CROWDTOPK_SHARDS", "four", 1);
  EXPECT_EQ(ShardCount(), 1);
  EXPECT_EQ(internal::EnvWarningCountForTest(), before + 1);
  ::unsetenv("CROWDTOPK_SHARDS");

  ::setenv("CROWDTOPK_SHARD_REDISPATCH", "lots", 1);
  EXPECT_EQ(ShardRedispatch(), 2);
  EXPECT_EQ(internal::EnvWarningCountForTest(), before + 2);
  ::unsetenv("CROWDTOPK_SHARD_REDISPATCH");
}

// The comma-list knobs (CROWDTOPK_SERVE_ALGOS, ...): spaces vanish, and
// empty fields, including a trailing one, are skipped.
TEST(EnvTest, SplitCsvDropsSpacesAndEmptyFields) {
  EXPECT_EQ(SplitCsv("spr, heap sort ,,tourtree,"),
            (std::vector<std::string>{"spr", "heapsort", "tourtree"}));
  EXPECT_EQ(SplitCsv("spr"), (std::vector<std::string>{"spr"}));
  EXPECT_TRUE(SplitCsv("").empty());
  EXPECT_TRUE(SplitCsv(" , ,").empty());
}

}  // namespace
}  // namespace crowdtopk::util
