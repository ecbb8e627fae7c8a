// Microbenchmarks of the statistical primitives on the comparison process
// hot path (google-benchmark).

#include <benchmark/benchmark.h>

#include "stats/binomial.h"
#include "stats/normal.h"
#include "stats/running_stats.h"
#include "stats/special_functions.h"
#include "stats/student_t.h"
#include "util/random.h"

namespace {

void BM_NormalCdf(benchmark::State& state) {
  double z = -4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crowdtopk::stats::NormalCdf(z));
    z += 1e-4;
    if (z > 4.0) z = -4.0;
  }
}
BENCHMARK(BM_NormalCdf);

void BM_NormalQuantile(benchmark::State& state) {
  double p = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crowdtopk::stats::NormalQuantile(p));
    p += 1e-5;
    if (p > 0.999) p = 0.001;
  }
}
BENCHMARK(BM_NormalQuantile);

void BM_IncompleteBeta(benchmark::State& state) {
  double x = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crowdtopk::stats::RegularizedIncompleteBeta(14.5, 0.5, x));
    x += 1e-4;
    if (x > 0.99) x = 0.01;
  }
}
BENCHMARK(BM_IncompleteBeta);

void BM_StudentTQuantileUncached(benchmark::State& state) {
  int df = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crowdtopk::stats::StudentTQuantile(0.99, df));
    if (++df > 2000) df = 2;
  }
}
BENCHMARK(BM_StudentTQuantileUncached);

void BM_TCriticalMemoised(benchmark::State& state) {
  // Warm the realistic df range once.
  for (int df = 1; df <= 4000; ++df) crowdtopk::stats::TCritical(0.02, df);
  int df = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crowdtopk::stats::TCritical(0.02, df));
    if (++df > 4000) df = 1;
  }
}
BENCHMARK(BM_TCriticalMemoised);

void BM_BinomialTail(benchmark::State& state) {
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crowdtopk::stats::BinomialTailAtLeast(31, k % 32, 0.4));
    ++k;
  }
}
BENCHMARK(BM_BinomialTail);

void BM_RunningStatsAdd(benchmark::State& state) {
  crowdtopk::util::Rng rng(1);
  crowdtopk::stats::RunningStats stats;
  for (auto _ : state) {
    stats.Add(rng.Uniform());
    benchmark::DoNotOptimize(stats.Mean());
  }
}
BENCHMARK(BM_RunningStatsAdd);

}  // namespace

BENCHMARK_MAIN();
