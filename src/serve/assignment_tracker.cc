#include "serve/assignment_tracker.h"

#include <tuple>

#include "serve/batch_scheduler.h"
#include "util/check.h"

namespace crowdtopk::serve {

AssignmentTracker::AssignmentTracker(int64_t max_attempts)
    : max_attempts_(max_attempts) {
  ScheduleOptions options;
  options.max_attempts = max_attempts;
  CROWDTOPK_CHECK(CheckScheduleOptions(options).ok());
}

void AssignmentTracker::Enqueue(const Assignment& assignment) {
  CROWDTOPK_CHECK_EQ(assignment.attempt, 0);
  pending_[assignment.query_id].push_back(assignment);
  ++stats_.enqueued;
}

bool AssignmentTracker::HasPending() const {
  for (const auto& [query, fifo] : pending_) {
    if (!fifo.empty()) return true;
  }
  return false;
}

int64_t AssignmentTracker::pending_count() const {
  int64_t count = 0;
  for (const auto& [query, fifo] : pending_) {
    count += static_cast<int64_t>(fifo.size());
  }
  return count;
}

std::vector<Assignment> AssignmentTracker::TakeWave(int64_t rotation,
                                                    int64_t capacity,
                                                    int64_t per_pair_cap) {
  CROWDTOPK_CHECK_GE(per_pair_cap, 1);
  std::vector<Assignment> wave;
  if (capacity <= 0) return wave;

  std::vector<int64_t> queries;
  queries.reserve(pending_.size());
  for (const auto& [query, fifo] : pending_) {
    if (!fifo.empty()) queries.push_back(query);
  }
  if (queries.empty()) return wave;

  // (query, i, j) -> assignments taken this wave; enforces the eta cap.
  std::map<std::tuple<int64_t, crowd::ItemId, crowd::ItemId>, int64_t> taken;
  const int64_t start =
      rotation % static_cast<int64_t>(queries.size());
  bool progress = true;
  while (static_cast<int64_t>(wave.size()) < capacity && progress) {
    progress = false;
    for (size_t s = 0;
         s < queries.size() && static_cast<int64_t>(wave.size()) < capacity;
         ++s) {
      const int64_t query =
          queries[(static_cast<size_t>(start) + s) % queries.size()];
      std::deque<Assignment>& fifo = pending_[query];
      if (fifo.empty()) continue;
      const Assignment& head = fifo.front();
      auto& pair_count = taken[{head.query_id, head.item_i, head.item_j}];
      // The head's pair already has eta tasks in flight this round; the
      // query sits out this pass (its FIFO order must be preserved).
      if (pair_count >= per_pair_cap) continue;
      ++pair_count;
      wave.push_back(head);
      fifo.pop_front();
      progress = true;
    }
  }
  stats_.scheduled += static_cast<int64_t>(wave.size());
  return wave;
}

AssignmentTracker::Resolution AssignmentTracker::Resolve(
    const Assignment& assignment, bool expired) {
  if (!expired) {
    ++stats_.completed;
    return Resolution::kCompleted;
  }
  ++stats_.expired;
  if (assignment.attempt + 1 >= max_attempts_) {
    ++stats_.failed;
    return Resolution::kFailed;
  }
  Assignment retry = assignment;
  ++retry.attempt;
  // Retries jump the queue so a straggling microtask cannot be pushed back
  // indefinitely by fresh purchases from its own query.
  pending_[retry.query_id].push_front(retry);
  ++stats_.requeued;
  return Resolution::kRequeued;
}

}  // namespace crowdtopk::serve
