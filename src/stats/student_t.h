// Student's t-distribution: pdf, CDF, quantile, and a memoised critical value.
//
// Algorithm 1 (StudentComp) evaluates t_{alpha/2, n-1} after every purchased
// judgment, so the two-sided critical value is on the hot path; TCritical
// memoises it once per process for each alpha.

#ifndef CROWDTOPK_STATS_STUDENT_T_H_
#define CROWDTOPK_STATS_STUDENT_T_H_

#include <cstddef>
#include <cstdint>

namespace crowdtopk::stats {

// Density of the t-distribution with `df` degrees of freedom at t.
double StudentTPdf(double t, double df);

// P(T <= t) for T ~ t(df). Requires df > 0.
double StudentTCdf(double t, double df);

// Quantile: returns t such that P(T <= t) = p, for p in (0, 1), df > 0.
// For df > 1e6 the normal quantile is used (the distributions agree to well
// below the accuracy the comparison process needs).
double StudentTQuantile(double p, double df);

// Two-sided critical value t_{alpha/2, df}: the value exceeded with
// right-tail probability alpha/2. Requires alpha in (0, 1).
double StudentTCritical(double alpha, double df);

// StudentTCritical(alpha, df) for integer df >= 1, bit for bit, memoised
// once per process; any thread may call it, and misses compute outside its
// lock. Above df = 2^20 it returns z_{alpha/2} and stores nothing. Clients
// choose alpha and the budget, so the memo holds at most 64 alphas and 2^20
// values (8 MiB) in all: a miss that would pass either bound empties it.
double TCritical(double alpha, int64_t df);

// Values the TCritical memo holds now, summed over its alphas.
size_t TCriticalMemoValuesForTesting();

}  // namespace crowdtopk::stats

#endif  // CROWDTOPK_STATS_STUDENT_T_H_
