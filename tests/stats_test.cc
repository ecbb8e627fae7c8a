// Tests for the statistical substrate: special functions, normal and
// Student-t distributions, binomial tails, Hoeffding bounds, Welford stats.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "stats/anytime.h"
#include "stats/binomial.h"
#include "stats/hoeffding.h"
#include "stats/normal.h"
#include "stats/running_stats.h"
#include "stats/special_functions.h"
#include "stats/student_t.h"
#include "util/random.h"

namespace crowdtopk::stats {
namespace {

// ---------------------------------------------------------------- LogBeta

TEST(LogBetaTest, MatchesKnownValues) {
  // B(1, 1) = 1, B(2, 3) = 1/12, B(0.5, 0.5) = pi.
  EXPECT_NEAR(LogBeta(1, 1), 0.0, 1e-12);
  EXPECT_NEAR(LogBeta(2, 3), std::log(1.0 / 12.0), 1e-12);
  EXPECT_NEAR(LogBeta(0.5, 0.5), std::log(M_PI), 1e-12);
}

TEST(LogBetaTest, Symmetry) {
  EXPECT_DOUBLE_EQ(LogBeta(3.7, 9.1), LogBeta(9.1, 3.7));
}

// ------------------------------------------- RegularizedIncompleteBeta

TEST(IncompleteBetaTest, Endpoints) {
  EXPECT_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBetaTest, UniformCase) {
  // I_x(1, 1) = x.
  for (double x : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(IncompleteBetaTest, ClosedFormAOne) {
  // I_x(1, b) = 1 - (1 - x)^b.
  for (double b : {0.5, 2.0, 7.0}) {
    for (double x : {0.05, 0.3, 0.6, 0.95}) {
      EXPECT_NEAR(RegularizedIncompleteBeta(1.0, b, x),
                  1.0 - std::pow(1.0 - x, b), 1e-12)
          << "b=" << b << " x=" << x;
    }
  }
}

TEST(IncompleteBetaTest, SymmetryIdentity) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (double a : {0.7, 2.0, 11.5}) {
    for (double b : {1.3, 4.0, 25.0}) {
      for (double x : {0.1, 0.42, 0.73}) {
        EXPECT_NEAR(RegularizedIncompleteBeta(a, b, x),
                    1.0 - RegularizedIncompleteBeta(b, a, 1.0 - x), 1e-11);
      }
    }
  }
}

TEST(IncompleteBetaTest, MonotoneInX) {
  double previous = -1.0;
  for (double x = 0.0; x <= 1.0; x += 0.01) {
    const double value = RegularizedIncompleteBeta(3.5, 2.5, x);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

TEST(InverseIncompleteBetaTest, RoundTrips) {
  for (double a : {0.6, 1.0, 5.0, 40.0}) {
    for (double b : {0.5, 2.5, 17.0}) {
      for (double p : {0.001, 0.05, 0.5, 0.95, 0.999}) {
        const double x = InverseRegularizedIncompleteBeta(a, b, p);
        EXPECT_NEAR(RegularizedIncompleteBeta(a, b, x), p, 1e-9)
            << "a=" << a << " b=" << b << " p=" << p;
      }
    }
  }
}

// -------------------------------------------------------------- Normal

TEST(NormalTest, CdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(NormalCdf(-1.959963984540054), 0.025, 1e-12);
  EXPECT_NEAR(NormalCdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(NormalTest, QuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.99), 2.3263478740408408, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.0013498980316300933), -3.0, 1e-8);
}

TEST(NormalTest, QuantileCdfRoundTrip) {
  for (double p = 0.0005; p < 1.0; p += 0.0101) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-12) << "p=" << p;
  }
}

TEST(NormalTest, PdfIntegratesToCdfDelta) {
  // Trapezoidal integral of the pdf over [-1, 2] equals Phi(2) - Phi(-1).
  const double lo = -1.0, hi = 2.0;
  const int steps = 20000;
  double integral = 0.0;
  for (int s = 0; s < steps; ++s) {
    const double x0 = lo + (hi - lo) * s / steps;
    const double x1 = lo + (hi - lo) * (s + 1) / steps;
    integral += 0.5 * (NormalPdf(x0) + NormalPdf(x1)) * (x1 - x0);
  }
  EXPECT_NEAR(integral, NormalCdf(hi) - NormalCdf(lo), 1e-8);
}

// ------------------------------------------------------------ Student-t

TEST(StudentTTest, CdfSymmetry) {
  for (double df : {1.0, 4.0, 30.0}) {
    for (double t : {0.3, 1.7, 4.2}) {
      EXPECT_NEAR(StudentTCdf(t, df) + StudentTCdf(-t, df), 1.0, 1e-12);
    }
  }
}

TEST(StudentTTest, CdfKnownValuesCauchy) {
  // df = 1 is the Cauchy distribution: F(t) = 1/2 + atan(t)/pi.
  for (double t : {-3.0, -1.0, 0.0, 0.5, 2.0}) {
    EXPECT_NEAR(StudentTCdf(t, 1.0), 0.5 + std::atan(t) / M_PI, 1e-12);
  }
}

TEST(StudentTTest, CriticalValuesMatchTables) {
  // Classic two-sided critical values t_{alpha/2, df}.
  EXPECT_NEAR(StudentTCritical(0.05, 1), 12.706, 2e-3);
  EXPECT_NEAR(StudentTCritical(0.05, 10), 2.228, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.05, 29), 2.045, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.01, 29), 2.756, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.02, 29), 2.462, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.10, 5), 2.015, 1e-3);
}

TEST(StudentTTest, QuantileCdfRoundTrip) {
  for (double df : {2.0, 7.0, 29.0, 500.0}) {
    for (double p : {0.01, 0.2, 0.5, 0.9, 0.995}) {
      EXPECT_NEAR(StudentTCdf(StudentTQuantile(p, df), df), p, 1e-9)
          << "df=" << df << " p=" << p;
    }
  }
}

TEST(StudentTTest, ApproachesNormalForLargeDf) {
  EXPECT_NEAR(StudentTQuantile(0.975, 1e5), NormalQuantile(0.975), 1e-4);
  EXPECT_NEAR(StudentTQuantile(0.975, 1e7), NormalQuantile(0.975), 1e-12);
}

TEST(StudentTTest, CriticalDecreasesWithDf) {
  double previous = StudentTCritical(0.02, 1);
  for (int df = 2; df <= 200; ++df) {
    const double value = StudentTCritical(0.02, df);
    EXPECT_LT(value, previous) << "df=" << df;
    previous = value;
  }
}

TEST(TCriticalTest, MatchesDirectComputation) {
  for (int64_t df : {1, 2, 29, 30, 999, 5000}) {
    EXPECT_DOUBLE_EQ(TCritical(0.02, df),
                     StudentTCritical(0.02, static_cast<double>(df)));
  }
  // Second lookup hits the memo and must agree.
  EXPECT_DOUBLE_EQ(TCritical(0.02, 29), StudentTCritical(0.02, 29.0));
}

TEST(TCriticalTest, HugeDfFallsBackToNormal) {
  EXPECT_NEAR(TCritical(0.05, int64_t{1} << 21), NormalQuantile(0.975), 1e-12);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Eight threads fill and read the one process-wide memo, each visiting
// four alphas and df 1..2000 in its own order; every value must equal the
// direct computation bit for bit.
TEST(TCriticalTest, ConcurrentLookupsMatchDirectComputation) {
  constexpr int kThreads = 8;
  constexpr int64_t kMaxDf = 2000;
  // Alphas no other test uses, so the threads race on cold tables.
  constexpr double kAlphas[] = {0.0173, 0.0311, 0.0587, 0.1129};
  std::vector<std::vector<uint64_t>> expected(4);
  for (int a = 0; a < 4; ++a) {
    for (int64_t df = 1; df <= kMaxDf; ++df) {
      expected[a].push_back(
          Bits(StudentTCritical(kAlphas[a], static_cast<double>(df))));
    }
  }
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &expected, &kAlphas, &mismatches] {
      for (int64_t s = 0; s < 4 * kMaxDf; ++s) {
        // Even threads walk one alpha's table upward at a time, odd ones
        // sweep df downward across all four alphas; the start rotates.
        const int a = t % 2 == 0 ? static_cast<int>((s / kMaxDf + t) % 4)
                                 : static_cast<int>((s + t) % 4);
        const int64_t df = t % 2 == 0 ? s % kMaxDf + 1 : kMaxDf - s / 4;
        if (Bits(TCritical(kAlphas[a], df)) !=
            expected[a][static_cast<size_t>(df - 1)]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The memo holds at most 64 alphas and empties itself when another one
// arrives; values looked up on either side of that reset stay exact.
TEST(TCriticalTest, SeventyAlphasStayExactPastTheTableBound) {
  for (int pass = 0; pass < 2; ++pass) {
    for (int a = 0; a < 70; ++a) {
      const double alpha = 0.0007 + 0.0113 * a;
      for (int64_t df : {1, 7, 30, 500}) {
        EXPECT_EQ(Bits(TCritical(alpha, df)),
                  Bits(StudentTCritical(alpha, static_cast<double>(df))))
            << "alpha=" << alpha << " df=" << df;
      }
    }
  }
}

// One lookup at df 2^20 fills a table of 2^20 values. Three alphas looked up
// there must not keep three such tables (24 MiB) resident: the memo holds at
// most 2^20 values, and the values stay exact.
TEST(TCriticalTest, MemoHoldsAtMostTwoToTheTwentyValues) {
  constexpr int64_t kDf = int64_t{1} << 20;
  for (const double alpha : {0.0211, 0.0433, 0.0877}) {
    EXPECT_EQ(Bits(TCritical(alpha, kDf)),
              Bits(StudentTCritical(alpha, static_cast<double>(kDf))));
    EXPECT_LE(TCriticalMemoValuesForTesting(), size_t{1} << 20);
  }
  EXPECT_EQ(Bits(TCritical(0.0211, 30)), Bits(StudentTCritical(0.0211, 30.0)));
  EXPECT_LE(TCriticalMemoValuesForTesting(), size_t{1} << 20);
}

// ------------------------------------------------------------ Binomial

TEST(BinomialTest, PmfSumsToOne) {
  for (double p : {0.0, 0.2, 0.5, 0.9, 1.0}) {
    double total = 0.0;
    for (int64_t i = 0; i <= 20; ++i) total += BinomialPmf(20, i, p);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(BinomialTest, TailMatchesDirectSum) {
  for (int64_t n : {1, 5, 17, 40}) {
    for (double p : {0.05, 0.37, 0.5, 0.93}) {
      for (int64_t k = 0; k <= n + 1; ++k) {
        EXPECT_NEAR(BinomialTailAtLeast(n, k, p),
                    BinomialTailAtLeastBySum(n, k, p), 1e-10)
            << "n=" << n << " p=" << p << " k=" << k;
      }
    }
  }
}

TEST(BinomialTest, TailEdges) {
  EXPECT_EQ(BinomialTailAtLeast(10, 0, 0.3), 1.0);
  EXPECT_EQ(BinomialTailAtLeast(10, 11, 0.3), 0.0);
  EXPECT_EQ(BinomialTailAtLeast(10, 5, 0.0), 0.0);
  EXPECT_EQ(BinomialTailAtLeast(10, 5, 1.0), 1.0);
}

TEST(BinomialTest, AtMostComplementsAtLeast) {
  for (int64_t k = 0; k <= 12; ++k) {
    EXPECT_NEAR(
        BinomialTailAtMost(12, k, 0.4) + BinomialTailAtLeast(12, k + 1, 0.4),
        1.0, 1e-12);
  }
}

// ----------------------------------------------- Wilson score interval

TEST(WilsonIntervalTest, ContainsPhatAndTightensWithN) {
  double previous_width = 1.0;
  for (int64_t n : {10, 100, 1000, 10000}) {
    const ProportionInterval interval =
        WilsonScoreInterval(3 * n / 10, n, 0.05);
    EXPECT_LT(interval.lo, 0.3);
    EXPECT_GT(interval.hi, 0.3);
    const double width = interval.hi - interval.lo;
    EXPECT_LT(width, previous_width) << "n=" << n;
    previous_width = width;
  }
}

TEST(WilsonIntervalTest, MatchesKnownValue) {
  // Classic worked example: 8/20 successes at 95% confidence.
  const ProportionInterval interval = WilsonScoreInterval(8, 20, 0.05);
  EXPECT_NEAR(interval.lo, 0.2188, 5e-4);
  EXPECT_NEAR(interval.hi, 0.6134, 5e-4);
}

TEST(WilsonIntervalTest, EdgeProportions) {
  // p-hat = 0: the lower bound is exactly 0 but the upper bound must stay
  // strictly positive (zero observed successes never proves p = 0).
  const ProportionInterval none = WilsonScoreInterval(0, 50, 0.05);
  EXPECT_EQ(none.lo, 0.0);
  EXPECT_GT(none.hi, 0.0);
  EXPECT_LT(none.hi, 0.15);
  // p-hat = 1: mirrored.
  const ProportionInterval all = WilsonScoreInterval(50, 50, 0.05);
  EXPECT_EQ(all.hi, 1.0);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_GT(all.lo, 0.85);
  // Symmetry of the two edges around 1/2.
  EXPECT_NEAR(none.hi, 1.0 - all.lo, 1e-12);
}

TEST(WilsonIntervalTest, SingleTrialStaysInformativeAndBounded) {
  for (int64_t successes : {int64_t{0}, int64_t{1}}) {
    const ProportionInterval interval =
        WilsonScoreInterval(successes, 1, 0.05);
    EXPECT_GE(interval.lo, 0.0);
    EXPECT_LE(interval.hi, 1.0);
    EXPECT_LT(interval.lo, interval.hi);  // n = 1 decides nothing
    EXPECT_GT(interval.hi - interval.lo, 0.5);
  }
}

TEST(WilsonIntervalTest, StricterAlphaWidens) {
  const ProportionInterval loose = WilsonScoreInterval(20, 100, 0.1);
  const ProportionInterval strict = WilsonScoreInterval(20, 100, 0.002);
  EXPECT_LT(strict.lo, loose.lo);
  EXPECT_GT(strict.hi, loose.hi);
}

// ------------------------------------------------------------ Hoeffding

TEST(HoeffdingTest, HalfWidthShrinksWithN) {
  double previous = HoeffdingHalfWidth(1, 2.0, 0.05);
  for (int64_t n = 2; n <= 1000; n *= 2) {
    const double width = HoeffdingHalfWidth(n, 2.0, 0.05);
    EXPECT_LT(width, previous);
    previous = width;
  }
}

TEST(HoeffdingTest, RequiredSamplesIsInverse) {
  const double alpha = 0.02;
  const double target = 0.12;
  const int64_t n = HoeffdingRequiredSamples(target, 2.0, alpha);
  EXPECT_LE(HoeffdingHalfWidth(n, 2.0, alpha), target);
  if (n > 1) {
    EXPECT_GT(HoeffdingHalfWidth(n - 1, 2.0, alpha), target);
  }
}

TEST(HoeffdingTest, MatchesPaperEquation3) {
  // Appendix D: n_b = (2 / mu~^2) log(2 / alpha) for votes in {-1, +1}.
  const double mu = 0.3;
  const double alpha = 0.05;
  const double expected = 2.0 / (mu * mu) * std::log(2.0 / alpha);
  EXPECT_EQ(HoeffdingRequiredSamples(mu, 2.0, alpha),
            static_cast<int64_t>(std::ceil(expected)));
}

// -------------------------------------------------------------- Anytime

TEST(AnytimeTest, InactiveBelowTenSamples) {
  EXPECT_TRUE(std::isinf(AnytimeHalfWidth(2, 1.0, 0.05)));
  EXPECT_TRUE(std::isinf(AnytimeHalfWidth(9, 1.0, 0.05)));
  EXPECT_FALSE(std::isinf(AnytimeHalfWidth(10, 1.0, 0.05)));
}

TEST(AnytimeTest, WiderThanFixedNStudentInterval) {
  // The trajectory-wide guarantee must cost width wherever it is active.
  for (int64_t n : {10, 30, 100, 1000, 100000}) {
    const double sd = 1.0;
    const double fixed = StudentTCritical(0.05, static_cast<double>(n - 1)) *
                         sd / std::sqrt(static_cast<double>(n));
    EXPECT_GT(AnytimeHalfWidth(n, sd, 0.05), fixed) << "n=" << n;
  }
}

TEST(AnytimeTest, ShrinksWithNAndScalesWithSd) {
  double previous = AnytimeHalfWidth(10, 1.0, 0.05);
  for (int64_t n = 20; n <= 1 << 20; n *= 2) {
    const double width = AnytimeHalfWidth(n, 1.0, 0.05);
    EXPECT_LT(width, previous);
    previous = width;
  }
  EXPECT_DOUBLE_EQ(AnytimeHalfWidth(100, 2.0, 0.05),
                   2.0 * AnytimeHalfWidth(100, 1.0, 0.05));
  EXPECT_EQ(AnytimeHalfWidth(100, 0.0, 0.05), 0.0);
}

TEST(AnytimeTest, TighterAlphaWiderInterval) {
  EXPECT_GT(AnytimeHalfWidth(50, 1.0, 0.01), AnytimeHalfWidth(50, 1.0, 0.1));
}

TEST(AnytimeTest, CoversTrajectoryOfTrueNull) {
  // Empirical check of the headline property: for mu = 0 Gaussian samples,
  // the running mean stays inside the sequence over a long horizon in all
  // but ~alpha of trajectories. (Monte Carlo; generous threshold.)
  util::Rng rng(123);
  const double alpha = 0.05;
  const int trials = 200;
  const int horizon = 1500;
  int violated = 0;
  for (int t = 0; t < trials; ++t) {
    RunningStats stats;
    bool violation = false;
    for (int n = 0; n < horizon; ++n) {
      stats.Add(rng.Gaussian());
      if (stats.count() >= 2 && stats.StdDev() > 0.0) {
        const double half =
            AnytimeHalfWidth(stats.count(), stats.StdDev(), alpha);
        if (std::fabs(stats.Mean()) > half) {
          violation = true;
          break;
        }
      }
    }
    if (violation) ++violated;
  }
  EXPECT_LE(violated / static_cast<double>(trials), alpha + 0.03);
}

// --------------------------------------------------------- RunningStats

TEST(RunningStatsTest, MatchesNaiveComputation) {
  util::Rng rng(42);
  RunningStats stats;
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    samples.push_back(x);
    stats.Add(x);
  }
  double mean = 0.0;
  for (double x : samples) mean += x;
  mean /= samples.size();
  double variance = 0.0;
  for (double x : samples) variance += (x - mean) * (x - mean);
  variance /= (samples.size() - 1);
  EXPECT_NEAR(stats.Mean(), mean, 1e-10);
  EXPECT_NEAR(stats.Variance(), variance, 1e-8);
  EXPECT_EQ(stats.count(), 1000);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.Mean(), 0.0);
  EXPECT_EQ(stats.Variance(), 0.0);
  stats.Add(5.0);
  EXPECT_EQ(stats.Mean(), 5.0);
  EXPECT_EQ(stats.Variance(), 0.0);
}

TEST(RunningStatsTest, MergeEqualsConcatenation) {
  util::Rng rng(7);
  RunningStats a, b, all;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Uniform(-1, 1);
    if (i % 3 == 0) {
      a.Add(x);
    } else {
      b.Add(x);
    }
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-12);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-12);
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(1.0);
  a.Add(2.0);
  const double mean = a.Mean();
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.Mean(), mean);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_EQ(empty.Mean(), mean);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats stats;
  stats.Add(4.0);
  stats.Reset();
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.Mean(), 0.0);
}

// ----------------------------------------------- Property sweeps (TEST_P)

class TQuantileRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TQuantileRoundTrip, RoundTrips) {
  const double df = std::get<0>(GetParam());
  const double p = std::get<1>(GetParam());
  EXPECT_NEAR(StudentTCdf(StudentTQuantile(p, df), df), p, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TQuantileRoundTrip,
    ::testing::Combine(::testing::Values(1.0, 2.0, 5.0, 29.0, 100.0, 2000.0),
                       ::testing::Values(0.005, 0.05, 0.25, 0.5, 0.75, 0.95,
                                         0.995)));

class BinomialTailProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BinomialTailProperty, MonotoneInP) {
  const int n = std::get<0>(GetParam());
  const double p = std::get<1>(GetParam());
  // P(X >= k) is non-increasing in k and non-decreasing in p.
  for (int k = 1; k <= n; ++k) {
    EXPECT_LE(BinomialTailAtLeast(n, k, p), BinomialTailAtLeast(n, k - 1, p));
    EXPECT_LE(BinomialTailAtLeast(n, k, p),
              BinomialTailAtLeast(n, k, std::min(1.0, p + 0.1)) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BinomialTailProperty,
                         ::testing::Combine(::testing::Values(3, 9, 31),
                                            ::testing::Values(0.1, 0.5,
                                                              0.85)));

}  // namespace
}  // namespace crowdtopk::stats
