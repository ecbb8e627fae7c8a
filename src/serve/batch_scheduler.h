// BatchScheduler: shared-capacity round execution for concurrent queries.
//
// The paper's latency model runs one query against a private crowd: each
// batch round, every undecided pair advances by up to eta microtasks in
// parallel (Section 5.5). The serving layer generalises this to many
// queries competing for one crowd of W worker slots per round. Query driver
// threads post purchases (PostPurchase: one run of `count` microtasks of
// one pair) and park at round boundaries (Barrier); the scheduler — driven
// by the QueryService thread — waits until every in-flight driver is parked
// or finished (quiescence), then executes one *global* round: it draws a
// wave of at most W microtasks, as runs, from the AssignmentTracker (eta
// per pair, round-robin across queries), simulates each microtask's
// pickup/work latency and abandonment, requeues expired ones, advances the
// simulated clock, and unparks the queries whose barrier condition is met.
//
// Determinism contract (matches src/exec): the entire simulation is a pure
// function of (options, seed, the queries' own purchase streams). Worker
// latencies are derived per (query, request, task, attempt) via chained
// util::SplitSeed — never from a shared draw-order-dependent stream; a run
// computes the chain's (query, request) prefix once for all its tasks — so
// the per-round wave simulation can fan out over runs on an
// exec::ThreadPool with any number of threads and still produce
// bit-identical reports. The quiescence barrier removes the remaining
// source of nondeterminism: global rounds only close when no driver is
// mutating its query state, so the wave content never depends on OS
// scheduling.
//
// A microtask that expires max_attempts times is dropped and the owning
// query is marked failed (util::Status kResourceExhausted); the query still
// runs to completion — its judgments were delivered at purchase time — but
// the service reports the failure instead of the result.

#ifndef CROWDTOPK_SERVE_BATCH_SCHEDULER_H_
#define CROWDTOPK_SERVE_BATCH_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
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
  // `pool` may be nullptr (serial wave simulation); if non-null it must
  // outlive the scheduler. `seed` drives worker latencies only — judgment
  // values belong to the queries' own platforms.
  BatchScheduler(const ScheduleOptions& options, uint64_t seed,
                 exec::ThreadPool* pool);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // ----- service-thread interface -------------------------------------

  // Registers query `query_id` and counts its driver as running. Call
  // before launching the driver thread. `seed_stream` keys the query's
  // worker-latency stream (QueryRequest::seed_stream; pass the query id
  // for the classic local behaviour — the default keeps old callers
  // byte-identical).
  void AdmitQuery(int64_t query_id, int64_t seed_stream = -1);

  // Blocks until every admitted driver is parked or finished.
  void WaitQuiescent();

  // True while some admitted, unfinished query is parked (i.e. a round must
  // run for the system to make progress). Call only when quiescent.
  bool AnyParked() const;

  // Executes one global round. Call only when quiescent.
  void ExecuteRound();

  // Fast-forwards the simulated clock to `seconds` (only forward; used to
  // idle until the next arrival). Call only when quiescent.
  void AdvanceTimeTo(double seconds);

  // Returns the ids of queries that finished since the last call.
  std::vector<int64_t> DrainFinished();

  double now_seconds() const;
  int64_t round() const;
  QueryServeStats QueryStats(int64_t query_id) const;
  AssignmentStats assignment_stats() const;

  // ----- driver-thread interface (via AsyncPlatform) ------------------

  // Registers `count` purchased microtasks for pair (i, j) of `query_id`
  // (j = -1 for graded tasks) as one run. Does not block.
  void PostPurchase(int64_t query_id, crowd::ItemId i, crowd::ItemId j,
                    int64_t count);

  // Parks the calling driver until all of its posted microtasks have been
  // worked off AND at least `rounds` further global rounds have closed.
  // `rounds` = 1 for NextRound, n for AccountRounds(n), 0 to drain pending
  // work without charging a round. Returns immediately when the condition
  // already holds.
  void Barrier(int64_t query_id, int64_t rounds);

  // Marks the calling driver finished; stamps completion round/time.
  void FinishQuery(int64_t query_id);

 private:
  struct QueryState {
    int64_t seed_stream = 0;  // latency-stream key (global id under a router)
    bool parked = false;
    bool finished = false;
    int64_t posted = 0;     // microtasks registered via PostPurchase
    int64_t resolved = 0;   // microtasks completed or permanently failed
    int64_t barrier_round = 0;  // unpark no earlier than this global round
    int64_t next_request_seq = 0;
    QueryServeStats stats;
  };

  // One simulated worker attempt; pure function of the task identity.
  struct AttemptOutcome {
    bool expired = false;
    double latency_seconds = 0.0;
  };
  // `purchase_seed` is the latency chain's prefix for one purchase,
  // SplitSeed(SplitSeed(seed_, seed_stream), request_seq).
  AttemptOutcome SimulateAttempt(uint64_t purchase_seed, int64_t task,
                                 int64_t attempt) const;

  bool BarrierSatisfied(const QueryState& q) const {
    return q.resolved >= q.posted && round_ >= q.barrier_round;
  }

  ScheduleOptions options_;
  uint64_t seed_;
  exec::ThreadPool* pool_;
  double lognormal_mu_;

  mutable std::mutex mutex_;
  std::condition_variable quiescent_;  // service waits: running_ == 0
  std::condition_variable unparked_;   // drivers wait: !state.parked
  std::map<int64_t, QueryState> queries_;
  AssignmentTracker tracker_;
  int64_t running_ = 0;  // admitted drivers not parked and not finished
  int64_t round_ = 0;
  double now_seconds_ = 0.0;
  std::vector<int64_t> newly_finished_;
};

}  // namespace crowdtopk::serve

#endif  // CROWDTOPK_SERVE_BATCH_SCHEDULER_H_
