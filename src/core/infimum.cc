#include "core/infimum.h"

#include <algorithm>
#include <cmath>

#include "crowd/platform.h"
#include "util/check.h"

namespace crowdtopk::core {

namespace {

// Mean workload (and mean round count) of COMP(a, b) over `repetitions`
// simulated runs.
void MeanWorkload(crowd::ItemId a, crowd::ItemId b,
                  const judgment::ComparisonOptions& options,
                  crowd::CrowdPlatform* platform, int64_t repetitions,
                  double* mean_workload, double* mean_rounds) {
  double workload_total = 0.0;
  double rounds_total = 0.0;
  for (int64_t rep = 0; rep < repetitions; ++rep) {
    judgment::ComparisonSession session(a, b, &options);
    int64_t local_rounds = 0;
    while (!session.Finished()) {
      session.Step(platform, options.batch_size);
      ++local_rounds;
    }
    workload_total += static_cast<double>(session.workload());
    rounds_total += static_cast<double>(local_rounds);
  }
  *mean_workload = workload_total / static_cast<double>(repetitions);
  *mean_rounds = rounds_total / static_cast<double>(repetitions);
}

}  // namespace

InfimumEstimate EstimateInfimumWithReference(
    const data::Dataset& dataset, int64_t k, int64_t ell,
    const judgment::ComparisonOptions& options, uint64_t seed,
    int64_t repetitions) {
  const int64_t n = dataset.num_items();
  CROWDTOPK_CHECK(k >= 1 && k <= n);
  CROWDTOPK_CHECK(ell >= k && ell <= n);
  CROWDTOPK_CHECK_GE(repetitions, 1);

  const std::vector<crowd::ItemId>& order = dataset.TrueOrder();
  crowd::CrowdPlatform platform(&dataset, seed);

  InfimumEstimate estimate;
  double max_partition_rounds = 0.0;
  double max_sort_rounds = 0.0;

  // (i) Adjacent confirmations within the true top-k.
  for (int64_t j = 0; j + 1 < k; ++j) {
    double workload = 0.0;
    double rounds = 0.0;
    MeanWorkload(order[j], order[j + 1], options, &platform, repetitions,
                 &workload, &rounds);
    estimate.tmc += workload;
    max_sort_rounds = std::max(max_sort_rounds, rounds);
  }
  // (ii) o*_k beats o*_j for k < j <= ell.
  for (int64_t j = k; j < ell; ++j) {
    double workload = 0.0;
    double rounds = 0.0;
    MeanWorkload(order[j], order[k - 1], options, &platform, repetitions,
                 &workload, &rounds);
    estimate.tmc += workload;
    max_partition_rounds = std::max(max_partition_rounds, rounds);
  }
  // (iii) o*_ell beats o*_j for j > ell.
  for (int64_t j = ell; j < n; ++j) {
    double workload = 0.0;
    double rounds = 0.0;
    MeanWorkload(order[j], order[ell - 1], options, &platform, repetitions,
                 &workload, &rounds);
    estimate.tmc += workload;
    max_partition_rounds = std::max(max_partition_rounds, rounds);
  }

  // Best case: one fully parallel partition wave plus one parallel
  // confirmation wave over the already-sorted top-k.
  estimate.rounds = max_partition_rounds + max_sort_rounds;
  return estimate;
}

InfimumEstimate EstimateInfimum(const data::Dataset& dataset, int64_t k,
                                const judgment::ComparisonOptions& options,
                                uint64_t seed, int64_t repetitions) {
  return EstimateInfimumWithReference(dataset, k, k, options, seed,
                                      repetitions);
}

}  // namespace crowdtopk::core
