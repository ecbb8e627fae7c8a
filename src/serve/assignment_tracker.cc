#include "serve/assignment_tracker.h"

#include <algorithm>
#include <utility>

#include "serve/batch_scheduler.h"
#include "util/check.h"

namespace crowdtopk::serve {

AssignmentTracker::AssignmentTracker(int64_t max_attempts)
    : max_attempts_(max_attempts) {
  ScheduleOptions options;
  options.max_attempts = max_attempts;
  CROWDTOPK_CHECK(CheckScheduleOptions(options).ok());
}

void AssignmentTracker::Enqueue(const TaskRun& run) {
  CROWDTOPK_CHECK_EQ(run.attempt, 0);
  CROWDTOPK_CHECK_GE(run.count, 1);
  pending_[run.query_id].push_back(run);
  stats_.enqueued += run.count;
}

std::vector<TaskRun> AssignmentTracker::TakeWave(int64_t rotation,
                                                 int64_t capacity,
                                                 int64_t per_pair_cap) {
  CROWDTOPK_CHECK_GE(per_pair_cap, 1);
  std::vector<TaskRun> wave;
  if (capacity <= 0) return wave;

  // A task-at-a-time round-robin takes a prefix of each query's FIFO: a
  // query sits out the rest of the wave at its first task whose pair
  // already has eta tasks in it. avail[q] is that prefix's length, capped
  // at the capacity.
  std::vector<std::deque<TaskRun>*> fifos;
  std::vector<int64_t> avail;
  for (auto& [query, fifo] : pending_) {
    if (fifo.empty()) continue;
    std::map<std::pair<crowd::ItemId, crowd::ItemId>, int64_t> taken;
    int64_t length = 0;
    for (const TaskRun& run : fifo) {
      int64_t& pair_count = taken[{run.item_i, run.item_j}];
      const int64_t take =
          std::min({run.count, per_pair_cap - pair_count, capacity - length});
      pair_count += take;
      length += take;
      if (take < run.count) break;
    }
    fifos.push_back(&fifo);
    avail.push_back(length);
  }
  if (fifos.empty()) return wave;

  // The round-robin is a water-fill: each query gets min(avail, level) for
  // the highest level the capacity covers, and the slots left over go one
  // each to the queries with more, in rotation order.
  auto filled = [&avail](int64_t level) {
    int64_t sum = 0;
    for (const int64_t a : avail) sum += std::min(a, level);
    return sum;
  };
  int64_t level = 0;
  int64_t hi = *std::max_element(avail.begin(), avail.end());
  while (level < hi) {
    const int64_t mid = level + (hi - level + 1) / 2;
    if (filled(mid) <= capacity) {
      level = mid;
    } else {
      hi = mid - 1;
    }
  }
  int64_t leftover = capacity - filled(level);

  const size_t start = static_cast<size_t>(rotation) % fifos.size();
  for (size_t s = 0; s < fifos.size(); ++s) {
    const size_t q = (start + s) % fifos.size();
    int64_t share = std::min(avail[q], level);
    if (leftover > 0 && avail[q] > level) {
      ++share;
      --leftover;
    }
    stats_.scheduled += share;
    std::deque<TaskRun>& fifo = *fifos[q];
    while (share > 0) {
      TaskRun& head = fifo.front();
      wave.push_back(head);
      if (head.count <= share) {
        share -= head.count;
        fifo.pop_front();
      } else {
        wave.back().count = share;
        head.first_task += share;
        head.count -= share;
        share = 0;
      }
    }
  }
  return wave;
}

AssignmentTracker::Resolution AssignmentTracker::Resolve(const TaskRun& run,
                                                         int64_t task,
                                                         bool expired) {
  if (!expired) {
    ++stats_.completed;
    return Resolution::kCompleted;
  }
  ++stats_.expired;
  if (run.attempt + 1 >= max_attempts_) {
    ++stats_.failed;
    return Resolution::kFailed;
  }
  TaskRun retry = run;
  retry.first_task = task;
  retry.count = 1;
  ++retry.attempt;
  // Retries jump the queue so a straggling microtask cannot be pushed back
  // indefinitely by fresh purchases from its own query.
  pending_[retry.query_id].push_front(retry);
  ++stats_.requeued;
  return Resolution::kRequeued;
}

}  // namespace crowdtopk::serve
