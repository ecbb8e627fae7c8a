// WallClockSimulator: a discrete-event marketplace model in simulated
// seconds.
//
// The paper measures latency in abstract batch rounds (Section 5.5) and
// reports one live data point: the PeopleAge query took 6 h 55 min for
// ~10.5k microtasks on CrowdFlower, with workers averaging ~11 s per
// question (Appendix B). This simulator converts the platform's
// purchase/round event stream into wall-clock time under a worker-pool
// model: a fixed number of concurrent worker slots; each microtask is
// picked up after an exponential delay and worked on for a lognormal
// duration; a batch round completes when its last microtask does (rounds
// are barriers, exactly like the abstract model).
//
// Attach it with CrowdPlatform::SetLatencyModel; it observes any algorithm
// unchanged.

#ifndef CROWDTOPK_CROWD_SIMULATOR_H_
#define CROWDTOPK_CROWD_SIMULATOR_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "crowd/latency_model.h"
#include "util/random.h"

namespace crowdtopk::crowd {

struct SimulatorOptions {
  // Concurrent worker slots picking up microtasks.
  int64_t num_workers = 5;
  // Mean seconds of actual work per microtask (Appendix B: ~11 s).
  double mean_task_seconds = 11.0;
  // Lognormal sigma of the work duration (0 = deterministic).
  double task_time_sigma = 0.35;
  // Mean exponential delay before a posted microtask is picked up.
  double mean_pickup_seconds = 4.0;
  // Price per microtask (Appendix B / Section 6.1: 0.1 US cent).
  double cost_per_task_usd = 0.001;
};

class WallClockSimulator : public LatencyModel {
 public:
  WallClockSimulator(SimulatorOptions options, uint64_t seed);

  // LatencyModel:
  void OnPurchase(ItemId i, ItemId j, int64_t count) override;
  // The first of the n rounds works off the pending tasks; the rest are
  // empty and cost no time.
  void OnRounds(int64_t n) override;

  // Simulated elapsed time so far (rounds completed).
  double now_seconds() const { return now_seconds_; }
  double now_hours() const { return now_seconds_ / 3600.0; }

  // Money spent so far.
  double total_cost_usd() const { return total_cost_usd_; }

  int64_t total_microtasks() const { return total_microtasks_; }

 private:
  SimulatorOptions options_;
  util::Rng rng_;
  double now_seconds_ = 0.0;
  double total_cost_usd_ = 0.0;
  int64_t total_microtasks_ = 0;
  int64_t pending_tasks_ = 0;  // purchased in the open round
  double lognormal_mu_;        // parameter giving the requested mean
};

}  // namespace crowdtopk::crowd

#endif  // CROWDTOPK_CROWD_SIMULATOR_H_
