// BatchScheduler: shared-capacity round execution for concurrent queries.
//
// The paper's latency model runs one query against a private crowd: each
// batch round, every undecided pair advances by up to eta microtasks in
// parallel (Section 5.5). The serving layer generalises this to many
// queries competing for one crowd of W worker slots per round. Each query
// driver thread owns the Query record AdmitQuery returned for it: it stages
// purchases there (PostPurchase: one run of `count` microtasks of one pair)
// and parks on the record's semaphore at round boundaries (Barrier). The
// QueryService thread writes everything else, and only while no driver
// runs: it waits until the running-driver count reaches zero (quiescence),
// moves the staged runs into the AssignmentTracker in query-id order, and
// executes one *global* round: it draws a wave of at most W microtasks, as
// runs, from the tracker (eta per pair, round-robin across queries),
// simulates each microtask's pickup/work latency and abandonment, requeues
// expired ones, advances the simulated clock, and wakes exactly the queries
// whose barrier is now met. It counts a driver as running before releasing
// its semaphore; the semaphore keeps a release that lands before the wait.
//
// Determinism contract (matches src/exec): the entire simulation is a pure
// function of (options, seed, the queries' own purchase streams). Worker
// latencies are derived per (query, request, task, attempt) via chained
// util::SplitSeed — never from a shared draw-order-dependent stream; a run
// computes the chain's (query, request) prefix once for all its tasks — so
// the per-round wave simulation can fan out over runs on an
// exec::ThreadPool with any number of threads and still produce
// bit-identical reports. The quiescence barrier removes the remaining
// source of nondeterminism: staged runs reach the tracker, and rounds
// close, only when no driver is mutating its query state, so the wave
// content never depends on OS scheduling.
//
// A microtask that expires max_attempts times is dropped and the owning
// query is marked failed (util::Status kResourceExhausted); the query still
// runs to completion — its judgments were delivered at purchase time — but
// the service reports the failure instead of the result.

#ifndef CROWDTOPK_SERVE_BATCH_SCHEDULER_H_
#define CROWDTOPK_SERVE_BATCH_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <semaphore>
#include <vector>

#include "crowd/types.h"
#include "exec/thread_pool.h"
#include "serve/assignment_tracker.h"
#include "util/status.h"

namespace crowdtopk::serve {

struct ScheduleOptions {
  // W: shared crowd worker slots per global round.
  int64_t crowd_workers = 100;
  // eta: per-(query, pair) microtask cap per round (Section 5.5).
  int64_t per_pair_batch = 30;
  // Worker latency model, mirroring crowd::SimulatorOptions (Appendix B:
  // ~11 s of work per question).
  double mean_pickup_seconds = 4.0;
  double mean_task_seconds = 11.0;
  double task_time_sigma = 0.35;
  // Probability a worker silently abandons an assignment.
  double abandon_probability = 0.03;
  // Probability an assignment lands on a no-show worker (fault-injection
  // layer, src/fault: fault::NoShowProbability): the worker accepts but
  // never submits, so the assignment always expires at the round deadline.
  // Distinct from abandonment, which still draws pickup/work latency and
  // may beat the deadline.
  double no_show_probability = 0.0;
  // Assignment deadline within a round: an assignment whose worker has not
  // submitted by then is declared expired and requeued. Also the round's
  // duration whenever at least one assignment expired (the barrier waits
  // out the deadline before giving up on stragglers).
  double deadline_seconds = 60.0;
  // Dispatch attempts per microtask before permanent failure.
  int64_t max_attempts = 4;
};

// The one range check over the serving knobs: Ok, or InvalidArgument
// naming the first field out of range. The BatchScheduler,
// AssignmentTracker and QueryService constructors CHECK through it; tools
// and net::Server::Start call it to refuse bad input with a message.
util::Status CheckScheduleOptions(const ScheduleOptions& options,
                                  int64_t max_inflight = 1);

// Per-query serving statistics, readable once the query finished.
struct QueryServeStats {
  int64_t admitted_round = 0;
  double admitted_seconds = 0.0;
  int64_t finished_round = 0;
  double finished_seconds = 0.0;
  int64_t expired_assignments = 0;
  int64_t requeued_assignments = 0;
  int64_t failed_assignments = 0;
  util::Status status;  // first permanent assignment failure, if any
};

class BatchScheduler {
 public:
  // One admitted query's record and its driver's handle on the scheduler.
  // Only that driver calls these methods; the record belongs to the driver
  // while it runs and to the service thread while it is parked or done.
  class Query {
   public:
    // Stages `count` purchased microtasks for pair (i, j) (j = -1 for
    // graded tasks) as one run; the service moves it into the tracker at
    // the next quiescence. Does not block.
    void PostPurchase(crowd::ItemId i, crowd::ItemId j, int64_t count);

    // Parks the driver until all of its posted microtasks have been worked
    // off AND at least `rounds` further global rounds have closed.
    // `rounds` = 1 for NextRound, n for AccountRounds(n), 0 to drain
    // pending work without charging a round. Returns immediately when the
    // condition already holds.
    void Barrier(int64_t rounds);

    // Marks the query finished and hands its record to the service. The
    // driver must not touch the record afterwards.
    void Finish();

    // Serving statistics so far; stable while the driver runs.
    const QueryServeStats& stats() const { return stats_; }

   private:
    friend class BatchScheduler;
    Query(BatchScheduler* scheduler, int64_t id, int64_t seed_stream)
        : scheduler_(scheduler), id_(id), seed_stream_(seed_stream) {}

    bool BarrierMet() const {
      return resolved_ >= posted_ && scheduler_->round_ >= barrier_round_;
    }

    BatchScheduler* const scheduler_;
    const int64_t id_;
    const int64_t seed_stream_;  // latency key (global id under a router)
    // Written by the driver while it runs.
    std::vector<TaskRun> staged_;  // purchases not yet in the tracker
    int64_t posted_ = 0;           // microtasks purchased
    int64_t barrier_round_ = 0;    // wake no earlier than this global round
    int64_t next_request_seq_ = 0;
    bool finished_ = false;
    // Written by the service thread while the driver is parked or done.
    int64_t resolved_ = 0;  // microtasks completed or permanently failed
    QueryServeStats stats_;
    bool retired_ = false;  // finished and returned by WaitQuiescent
    std::binary_semaphore wake_{0};
  };

  // `pool` may be nullptr (serial wave simulation); if non-null it must
  // outlive the scheduler. `seed` drives worker latencies only — judgment
  // values belong to the queries' own platforms.
  BatchScheduler(const ScheduleOptions& options, uint64_t seed,
                 exec::ThreadPool* pool);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // The remaining methods are the service thread's.

  // Registers query `query_id`, counts its driver as running, and returns
  // the record to hand to the driver thread; it lives as long as the
  // scheduler. `seed_stream` keys the query's worker-latency stream
  // (QueryRequest::seed_stream; pass the query id for the classic local
  // behaviour — the default keeps old callers byte-identical).
  Query* AdmitQuery(int64_t query_id, int64_t seed_stream = -1);

  // Blocks until every admitted driver is parked or finished, then moves
  // the staged purchases into the tracker in query-id order. Returns the
  // ids of the queries that finished since the last call, ascending. Every
  // other admitted query is parked afterwards.
  std::vector<int64_t> WaitQuiescent();

  // Executes one global round and wakes the queries whose barrier it met.
  // Call only when quiescent.
  void ExecuteRound();

  // Fast-forwards the simulated clock to `seconds` (only forward; used to
  // idle until the next arrival). Call only when quiescent.
  void AdvanceTimeTo(double seconds);

  double now_seconds() const { return now_seconds_; }
  int64_t round() const { return round_; }
  QueryServeStats QueryStats(int64_t id) const {
    return queries_.at(id)->stats_;
  }
  AssignmentStats assignment_stats() const { return tracker_.stats(); }

 private:
  // One simulated worker attempt; pure function of the task identity.
  struct AttemptOutcome {
    bool expired = false;
    double latency_seconds = 0.0;
  };
  // `purchase_seed` is the latency chain's prefix for one purchase,
  // SplitSeed(SplitSeed(seed_, seed_stream), request_seq).
  AttemptOutcome SimulateAttempt(uint64_t purchase_seed, int64_t task,
                                 int64_t attempt) const;

  // A driver parks or finishes: one fewer running.
  void DriverStopped() { if (--running_ == 0) running_.notify_one(); }

  ScheduleOptions options_;
  uint64_t seed_;
  exec::ThreadPool* pool_;
  double lognormal_mu_;

  std::map<int64_t, std::unique_ptr<Query>> queries_;
  AssignmentTracker tracker_;
  std::atomic<int64_t> running_{0};  // admitted drivers not parked or done
  // Change only while no driver runs, so drivers read them without a lock.
  int64_t round_ = 0;
  double now_seconds_ = 0.0;
};

}  // namespace crowdtopk::serve

#endif  // CROWDTOPK_SERVE_BATCH_SCHEDULER_H_
