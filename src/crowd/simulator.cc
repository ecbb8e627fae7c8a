#include "crowd/simulator.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace crowdtopk::crowd {

WallClockSimulator::WallClockSimulator(SimulatorOptions options,
                                       uint64_t seed)
    : options_(options), rng_(seed ^ 0x51b0c10cULL) {
  CROWDTOPK_CHECK_GE(options.num_workers, 1);
  CROWDTOPK_CHECK(options.mean_task_seconds > 0.0);
  CROWDTOPK_CHECK(options.task_time_sigma >= 0.0);
  CROWDTOPK_CHECK(options.mean_pickup_seconds >= 0.0);
  // Lognormal with mean m and sigma s has mu = ln(m) - s^2/2.
  lognormal_mu_ = std::log(options.mean_task_seconds) -
                  0.5 * options.task_time_sigma * options.task_time_sigma;
}

void WallClockSimulator::OnPurchase(ItemId /*i*/, ItemId /*j*/,
                                    int64_t count) {
  CROWDTOPK_CHECK_GE(count, 0);
  pending_tasks_ += count;
  total_microtasks_ += count;
  total_cost_usd_ +=
      static_cast<double>(count) * options_.cost_per_task_usd;
}

void WallClockSimulator::OnRounds(int64_t n) {
  CROWDTOPK_CHECK_GE(n, 1);
  if (pending_tasks_ == 0) return;  // an empty round costs no time
  // Discrete-event wave: every worker slot is free at round start; each
  // task goes to the earliest-free slot after an exponential pickup delay;
  // the round (a barrier) ends when the last task finishes.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      worker_free;
  for (int64_t w = 0; w < options_.num_workers; ++w) worker_free.push(0.0);
  double round_end = 0.0;
  for (int64_t task = 0; task < pending_tasks_; ++task) {
    const double free_at = worker_free.top();
    worker_free.pop();
    double pickup = 0.0;
    if (options_.mean_pickup_seconds > 0.0) {
      // Exponential via inverse CDF.
      double u = rng_.Uniform();
      while (u <= 0.0) u = rng_.Uniform();
      pickup = -options_.mean_pickup_seconds * std::log(u);
    }
    double work = options_.mean_task_seconds;
    if (options_.task_time_sigma > 0.0) {
      work = std::exp(
          rng_.Gaussian(lognormal_mu_, options_.task_time_sigma));
    }
    const double finish = free_at + pickup + work;
    worker_free.push(finish);
    round_end = std::max(round_end, finish);
  }
  now_seconds_ += round_end;
  pending_tasks_ = 0;
}

}  // namespace crowdtopk::crowd
