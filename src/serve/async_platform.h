// AsyncPlatform: the bridge between a synchronous top-k algorithm and the
// shared BatchScheduler.
//
// Algorithms (SPR and every baseline, APIs unmodified) drive a
// crowd::CrowdPlatform. AsyncPlatform derives from it: judgment *values*
// and cost/round accounting are delegated to the base class — so a query
// served through this adapter buys the exact judgment stream, TMC, and
// private round count it would buy on a private platform with the same
// seed — while every purchase is additionally staged in the query's
// scheduler record and every round boundary parks the driver thread until
// the crowd has actually worked the query's microtasks off. The base class's
// rounds() counter therefore reads as the query's *private* latency (what
// it would cost alone, the paper's Section 5.5 metric) and the scheduler's
// global round span as its *observed* latency including cross-query
// contention, stragglers, and requeues.
//
// One AsyncPlatform and the BatchScheduler::Query record it holds belong to
// exactly one driver thread; the platform is as thread-compatible as the
// base class (not thread-safe).

#ifndef CROWDTOPK_SERVE_ASYNC_PLATFORM_H_
#define CROWDTOPK_SERVE_ASYNC_PLATFORM_H_

#include <cstdint>
#include <vector>

#include "crowd/oracle.h"
#include "crowd/platform.h"
#include "serve/batch_scheduler.h"

namespace crowdtopk::serve {

class AsyncPlatform : public crowd::CrowdPlatform {
 public:
  // `oracle` and the scheduler that admitted `query` must outlive the
  // platform.
  AsyncPlatform(const crowd::JudgmentOracle* oracle, uint64_t seed,
                BatchScheduler::Query* query);

  void CollectPreferences(crowd::ItemId i, crowd::ItemId j, int64_t count,
                          std::vector<double>* out) override;
  void CollectBinaryVotes(crowd::ItemId i, crowd::ItemId j, int64_t count,
                          std::vector<double>* out) override;
  void CollectGrades(crowd::ItemId i, int64_t count,
                     std::vector<double>* out) override;

  // Parks until this query's outstanding microtasks are worked off and one
  // more global round has closed.
  void NextRound() override;

  // Parks until outstanding microtasks are worked off and `n` more global
  // rounds have closed.
  void AccountRounds(int64_t n) override;

  // Flushes purchases made after the last round boundary without charging
  // another round. QueryService calls this after the algorithm returns, so
  // a query never finishes with work still queued at the crowd.
  void Drain();

 private:
  BatchScheduler::Query* query_;
};

}  // namespace crowdtopk::serve

#endif  // CROWDTOPK_SERVE_ASYNC_PLATFORM_H_
