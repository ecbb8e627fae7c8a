// CrowdPlatform: the simulated crowdsourcing marketplace.
//
// Every microtask purchased through the platform increments the total
// monetary cost (TMC, Section 4: unit cost per microtask). Latency is
// measured in *batch rounds* (Section 5.5): within one round, all independent
// comparisons may advance in parallel by up to eta microtasks each; the
// algorithm driving the platform marks round boundaries with NextRound().
//
// Each purchase and each batch of round boundaries is metered in one step:
// the counters, then the telemetry::TraceRecorder (SetRecorder; algorithm
// layers delimit phases with telemetry::PhaseScope(platform->recorder(),
// ...), docs/OBSERVABILITY.md), then the LatencyModel (SetLatencyModel),
// the platform's only hook: the wall-clock marketplace, or a served query's
// serve::BatchScheduler::Query record, which parks the driver at rounds.

#ifndef CROWDTOPK_CROWD_PLATFORM_H_
#define CROWDTOPK_CROWD_PLATFORM_H_

#include <cstdint>
#include <vector>

#include "crowd/latency_model.h"
#include "crowd/oracle.h"
#include "crowd/types.h"
#include "telemetry/recorder.h"
#include "util/random.h"

namespace crowdtopk::cache {
class CacheClient;  // src/cache — attached opaquely, see SetCacheClient
}  // namespace crowdtopk::cache

namespace crowdtopk::crowd {

class CrowdPlatform {
 public:
  // `oracle` must outlive the platform. `seed` drives all judgment sampling.
  CrowdPlatform(const JudgmentOracle* oracle, uint64_t seed);

  CrowdPlatform(const CrowdPlatform&) = delete;
  CrowdPlatform& operator=(const CrowdPlatform&) = delete;

  const JudgmentOracle& oracle() const { return *oracle_; }
  int64_t num_items() const { return oracle_->num_items(); }

  // Buys `count` preference judgments for the pair (i, j), appending them to
  // *out. Each judgment costs one microtask.
  void CollectPreferences(ItemId i, ItemId j, int64_t count,
                          std::vector<double>* out);

  // Buys `count` binary judgments in {-1, +1}.
  void CollectBinaryVotes(ItemId i, ItemId j, int64_t count,
                          std::vector<double>* out);

  // Buys `count` graded judgments of item i in [0, 1].
  void CollectGrades(ItemId i, int64_t count, std::vector<double>* out);

  // Marks the end of one batch round: everything purchased since the last
  // call is considered to have been outsourced in parallel.
  void NextRound() { AccountRounds(1); }

  // Accounts `n` >= 0 additional rounds at once (for sequential sub-phases
  // whose round count is known in closed form); 0 reports nothing.
  void AccountRounds(int64_t n);

  // Attaches the latency model receiving every purchase and round batch
  // (the wall-clock marketplace simulator, or a served query's scheduler
  // record). May be nullptr to detach; must outlive the platform while
  // attached.
  void SetLatencyModel(LatencyModel* model) { latency_model_ = model; }

  // Attaches a telemetry recorder receiving one event per purchase and per
  // round boundary. May be nullptr to detach; must outlive the platform
  // while attached. Algorithms read it back via recorder() to open phase
  // scopes and record counters.
  void SetRecorder(telemetry::TraceRecorder* recorder) {
    recorder_ = recorder;
  }
  telemetry::TraceRecorder* recorder() const { return recorder_; }

  // Attaches this query's handle onto the cross-query judgment cache
  // (src/cache). Like the recorder, the pointer is merely carried here:
  // the judgment layer reads it back at ComparisonCache construction to
  // serve memoised verdicts before buying fresh microtasks. May be nullptr
  // to detach; must outlive the platform while attached.
  void SetCacheClient(cache::CacheClient* client) { cache_client_ = client; }
  cache::CacheClient* cache_client() const { return cache_client_; }

  // Total microtasks purchased so far (the paper's TMC).
  int64_t total_microtasks() const { return total_microtasks_; }

  // Batch rounds elapsed (the paper's query latency).
  int64_t rounds() const { return rounds_; }

  // Resets cost and latency counters (not the RNG stream).
  void ResetCounters();

  util::Rng* rng() { return &rng_; }

 private:
  // Charges `count` microtasks just drawn for (i, j) to the counter, the
  // recorder and the model, in that order.
  void Meter(telemetry::PurchaseKind kind, ItemId i, ItemId j, int64_t count);

  const JudgmentOracle* oracle_;
  util::Rng rng_;
  LatencyModel* latency_model_ = nullptr;
  telemetry::TraceRecorder* recorder_ = nullptr;
  cache::CacheClient* cache_client_ = nullptr;
  int64_t total_microtasks_ = 0;
  int64_t rounds_ = 0;
};

}  // namespace crowdtopk::crowd

#endif  // CROWDTOPK_CROWD_PLATFORM_H_
