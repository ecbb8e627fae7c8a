#include "stats/student_t.h"

#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "stats/normal.h"
#include "stats/special_functions.h"
#include "util/check.h"

namespace crowdtopk::stats {

double StudentTPdf(double t, double df) {
  CROWDTOPK_CHECK(df > 0.0);
  const double log_norm = LogGamma(0.5 * (df + 1.0)) - LogGamma(0.5 * df) -
                          0.5 * std::log(df * M_PI);
  return std::exp(log_norm -
                  0.5 * (df + 1.0) * std::log1p(t * t / df));
}

double StudentTCdf(double t, double df) {
  CROWDTOPK_CHECK(df > 0.0);
  if (t == 0.0) return 0.5;
  const double x = df / (df + t * t);
  const double tail = 0.5 * RegularizedIncompleteBeta(0.5 * df, 0.5, x);
  return t > 0.0 ? 1.0 - tail : tail;
}

double StudentTQuantile(double p, double df) {
  CROWDTOPK_CHECK(p > 0.0 && p < 1.0);
  CROWDTOPK_CHECK(df > 0.0);
  if (df > 1e6) return NormalQuantile(p);
  if (p == 0.5) return 0.0;
  // Symmetric: solve for the upper half and mirror.
  const bool upper = p > 0.5;
  const double tail2 = upper ? 2.0 * (1.0 - p) : 2.0 * p;  // I_x(df/2, 1/2)
  const double x = InverseRegularizedIncompleteBeta(0.5 * df, 0.5, tail2);
  // x = df / (df + t^2)  =>  t = sqrt(df (1 - x) / x).
  double t;
  if (x <= 0.0) {
    t = std::numeric_limits<double>::infinity();
  } else {
    t = std::sqrt(df * (1.0 - x) / x);
  }
  return upper ? t : -t;
}

double StudentTCritical(double alpha, double df) {
  CROWDTOPK_CHECK(alpha > 0.0 && alpha < 1.0);
  return StudentTQuantile(1.0 - 0.5 * alpha, df);
}

double TCritical(double alpha, int64_t df) {
  constexpr int64_t kMaxMemoDf = int64_t{1} << 20;  // 8 MiB per table
  constexpr size_t kMaxTables = 64;  // alpha comes from clients
  // Alpha's bits -> StudentTCritical by df, NaN = not yet computed. Never
  // destroyed, so a thread still running at exit can use it.
  static std::mutex& mu = *new std::mutex;
  static auto& memo = *new std::unordered_map<uint64_t, std::vector<double>>;

  CROWDTOPK_CHECK(alpha > 0.0 && alpha < 1.0);
  CROWDTOPK_CHECK_GE(df, 1);
  if (df > kMaxMemoDf) return NormalQuantile(1.0 - 0.5 * alpha);
  const uint64_t key = std::bit_cast<uint64_t>(alpha);
  const size_t index = static_cast<size_t>(df);
  std::unique_lock<std::mutex> lock(mu);
  if (const auto it = memo.find(key); it != memo.end() &&
      index < it->second.size() && !std::isnan(it->second[index])) {
    return it->second[index];
  }
  // A miss computes outside the lock, so misses on other threads run in
  // parallel; two threads that miss on one value store the same double.
  lock.unlock();
  const double t = StudentTCritical(alpha, static_cast<double>(df));
  lock.lock();
  if (memo.size() == kMaxTables && !memo.contains(key)) memo.clear();
  std::vector<double>& table = memo[key];
  if (index >= table.size()) {
    table.resize(index + 1, std::numeric_limits<double>::quiet_NaN());
  }
  table[index] = t;
  return t;
}

}  // namespace crowdtopk::stats
