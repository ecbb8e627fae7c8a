// AssignmentTracker: straggler-tolerant bookkeeping of outsourced microtasks.
//
// Every microtask a query purchases through the serving layer must be
// worked off by the shared simulated crowd. The tracker stores them run-
// length: one purchase of `count` tasks of one pair is one TaskRun, and a
// wave hands out whole runs or splits one, so the bookkeeping costs per
// purchase, not per task. Each task still has its own identity (the run's
// first_task + offset) and its own simulated worker. Crowd workers are slow
// and unreliable (Hui & Berberich, PAPERS.md: highly variable completion
// times and abandonment), so a task handed to a worker may expire — the
// worker abandons it or blows the round deadline — in which case the
// tracker requeues it for the next round, as a run of one task with a
// bumped attempt counter. Retries are bounded: a task that expires
// `max_attempts` times is declared permanently failed, which the scheduler
// surfaces to the owning query as util::Status (kResourceExhausted).
//
// The tracker keeps one FIFO of pending runs per query and fills each
// round's wave as a task-at-a-time round-robin over the queries would, so
// no query starves while another floods the platform. Selection is a pure
// function of the tracker state and the rotation index — no clocks, no
// thread identity — which is what keeps the whole serving layer bit-
// deterministic. The tracker is not thread-safe: only the service thread
// touches it, inside the BatchScheduler, while no query driver runs.

#ifndef CROWDTOPK_SERVE_ASSIGNMENT_TRACKER_H_
#define CROWDTOPK_SERVE_ASSIGNMENT_TRACKER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "crowd/types.h"

namespace crowdtopk::serve {

// Tasks first_task .. first_task + count - 1 of one purchase, all at the
// same attempt.
struct TaskRun {
  int64_t query_id = 0;
  int64_t seed_stream = 0;  // latency-stream key (defaults to query_id)
  int64_t request_seq = 0;  // per-query purchase sequence number
  int64_t first_task = 0;   // unit index of the first task in that purchase
  int64_t count = 1;        // tasks in the run (>= 1)
  crowd::ItemId item_i = 0;
  crowd::ItemId item_j = -1;  // -1 for graded single-item tasks
  int64_t attempt = 0;        // 0 on first dispatch, +1 per requeue
};

// Lifetime counters over all microtasks the tracker has seen; every field
// counts tasks, not runs.
struct AssignmentStats {
  int64_t enqueued = 0;   // distinct microtasks registered
  int64_t scheduled = 0;  // dispatch attempts handed to the crowd
  int64_t completed = 0;  // attempts that came back with a judgment
  int64_t expired = 0;    // attempts abandoned or past the deadline
  int64_t requeued = 0;   // expired attempts put back for retry
  int64_t failed = 0;     // microtasks dropped after max_attempts expiries
};

class AssignmentTracker {
 public:
  // A microtask is dispatched at most `max_attempts` times (>= 1).
  explicit AssignmentTracker(int64_t max_attempts);

  // Registers a fresh purchase (attempt 0) at the back of its query's FIFO.
  void Enqueue(const TaskRun& run);

  // Selects the next round's wave: at most `capacity` tasks in total and
  // at most `per_pair_cap` for any one (query, pair) — the paper's
  // per-pair batch bound eta (Section 5.5). Each query gets exactly the
  // tasks a round-robin gives it that serves queries one task at a time in
  // ascending-id order starting from `rotation` (pass the global round
  // number), so saturating queries interleave fairly. That share is a
  // prefix of the query's FIFO, returned as runs in FIFO order. Selected
  // tasks leave the pending FIFOs; the caller must Resolve() each of them
  // afterwards, in the wave's order.
  std::vector<TaskRun> TakeWave(int64_t rotation, int64_t capacity,
                                int64_t per_pair_cap);

  enum class Resolution {
    kCompleted,  // judgment arrived in time
    kRequeued,   // expired; put back at the front of its query's FIFO
    kFailed,     // expired with retries exhausted; dropped for good
  };

  // Reports the simulated outcome of task `task` of a run taken by
  // TakeWave (run.first_task <= task < run.first_task + run.count).
  Resolution Resolve(const TaskRun& run, int64_t task, bool expired);

  const AssignmentStats& stats() const { return stats_; }
  int64_t max_attempts() const { return max_attempts_; }

 private:
  int64_t max_attempts_;
  // query id -> FIFO of pending runs. Ordered map: wave selection iterates
  // queries in ascending id, independent of insertion order.
  std::map<int64_t, std::deque<TaskRun>> pending_;
  AssignmentStats stats_;
};

}  // namespace crowdtopk::serve

#endif  // CROWDTOPK_SERVE_ASSIGNMENT_TRACKER_H_
