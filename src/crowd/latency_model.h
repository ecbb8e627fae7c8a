// LatencyModel: the one hook on the crowd platform (crowd/platform.h),
// which hands it every purchase and every batch of round boundaries last,
// after drawing the judgments and metering them. The wall-clock marketplace
// (crowd/simulator.h) turns them into seconds; a served query's
// serve::BatchScheduler::Query stages the purchases on the shared crowd and
// parks the driver until the rounds have run.

#ifndef CROWDTOPK_CROWD_LATENCY_MODEL_H_
#define CROWDTOPK_CROWD_LATENCY_MODEL_H_

#include <cstdint>

#include "crowd/types.h"

namespace crowdtopk::crowd {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  // `count` > 0 microtasks for the pair (i, j) were just purchased (j = -1
  // for graded tasks of item i); they belong to the current, still-open
  // batch round.
  virtual void OnPurchase(ItemId i, ItemId j, int64_t count) = 0;

  // `n` > 0 batch rounds closed at once: everything purchased since the
  // last boundary ran in parallel in the first of them.
  virtual void OnRounds(int64_t n) = 0;
};

}  // namespace crowdtopk::crowd

#endif  // CROWDTOPK_CROWD_LATENCY_MODEL_H_
