#include "serve/batch_scheduler.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "exec/parallel_for.h"
#include "util/check.h"
#include "util/random.h"

namespace crowdtopk::serve {
namespace {

// Salt separating the worker-latency seed stream from the per-query
// judgment streams derived elsewhere from the same master seed.
constexpr uint64_t kLatencyStream = 0x6c61746e63790001ULL;

}  // namespace

util::Status CheckScheduleOptions(const ScheduleOptions& options,
                                  int64_t max_inflight) {
  const ScheduleOptions& o = options;
  // Each condition is written so that a NaN fails it; times must be finite.
  const std::pair<bool, const char*> checks[] = {
      {o.crowd_workers >= 1, "crowd_workers must be >= 1"},
      {o.per_pair_batch >= 1, "per_pair_batch must be >= 1"},
      {std::isfinite(o.mean_pickup_seconds) && o.mean_pickup_seconds >= 0.0,
       "mean_pickup_seconds must be finite and >= 0"},
      {std::isfinite(o.mean_task_seconds) && o.mean_task_seconds > 0.0,
       "mean_task_seconds must be finite and > 0"},
      {std::isfinite(o.task_time_sigma) && o.task_time_sigma >= 0.0,
       "task_time_sigma must be finite and >= 0"},
      {o.abandon_probability >= 0.0 && o.abandon_probability <= 1.0,
       "abandon_probability must be in [0, 1]"},
      {o.no_show_probability >= 0.0 && o.no_show_probability <= 1.0,
       "no_show_probability must be in [0, 1]"},
      {std::isfinite(o.deadline_seconds) && o.deadline_seconds > 0.0,
       "deadline_seconds must be finite and > 0"},
      {o.max_attempts >= 1, "max_attempts must be >= 1"},
      {max_inflight >= 1, "max_inflight must be >= 1"},
  };
  for (const auto& [ok, message] : checks) {
    if (!ok) return util::Status::InvalidArgument(message);
  }
  return util::Status::Ok();
}

BatchScheduler::BatchScheduler(const ScheduleOptions& options, uint64_t seed,
                               exec::ThreadPool* pool)
    : options_(options),
      seed_(util::SplitSeed(seed, kLatencyStream)),
      pool_(pool),
      tracker_(options.max_attempts) {
  CROWDTOPK_CHECK(CheckScheduleOptions(options).ok());
  // Lognormal with mean m and sigma s has mu = ln(m) - s^2/2.
  lognormal_mu_ = std::log(options.mean_task_seconds) -
                  0.5 * options.task_time_sigma * options.task_time_sigma;
}

BatchScheduler::Query* BatchScheduler::AdmitQuery(int64_t query_id,
                                                  int64_t seed_stream) {
  auto [it, inserted] = queries_.try_emplace(query_id);
  CROWDTOPK_CHECK(inserted);
  it->second.reset(
      new Query(this, query_id, seed_stream >= 0 ? seed_stream : query_id));
  Query& q = *it->second;
  q.barrier_round_ = round_;
  q.stats_.admitted_round = round_;
  q.stats_.admitted_seconds = now_seconds_;
  ++running_;
  return &q;
}

std::vector<int64_t> BatchScheduler::WaitQuiescent() {
  for (int64_t n = running_; n != 0; n = running_) running_.wait(n);
  // Every record is the service thread's now. Staged runs are a query's
  // purchases in order and the tracker keeps one FIFO per query, so this
  // commit leaves the tracker as enqueueing each at purchase time would.
  std::vector<int64_t> finished;
  for (auto& [id, q] : queries_) {
    if (q->retired_) continue;
    // Release the buffer: a cleared one would keep its peak capacity.
    for (const TaskRun& run : std::exchange(q->staged_, {})) {
      tracker_.Enqueue(run);
    }
    if (!q->finished_) continue;
    q->retired_ = true;
    q->stats_.finished_round = round_;
    q->stats_.finished_seconds = now_seconds_;
    finished.push_back(id);
  }
  return finished;
}

void BatchScheduler::AdvanceTimeTo(double seconds) {
  CROWDTOPK_CHECK_EQ(running_, 0);
  now_seconds_ = std::max(now_seconds_, seconds);
}

void BatchScheduler::Query::PostPurchase(crowd::ItemId i, crowd::ItemId j,
                                         int64_t count) {
  if (count <= 0) return;
  CROWDTOPK_CHECK(!finished_);
  TaskRun run;
  run.query_id = id_;
  run.seed_stream = seed_stream_;
  run.request_seq = next_request_seq_++;
  run.count = count;
  run.item_i = i;
  run.item_j = j;
  staged_.push_back(run);
  posted_ += count;
}

void BatchScheduler::Query::Barrier(int64_t rounds) {
  CROWDTOPK_CHECK_GE(rounds, 0);
  barrier_round_ = scheduler_->round_ + rounds;
  if (BarrierMet()) return;
  scheduler_->DriverStopped();
  wake_.acquire();
}

void BatchScheduler::Query::Finish() {
  CROWDTOPK_CHECK(!finished_);
  // Drivers drain before finishing (AsyncPlatform::Drain), so no pending
  // work of this query can be left behind to stall the tracker.
  CROWDTOPK_CHECK_GE(resolved_, posted_);
  finished_ = true;
  scheduler_->DriverStopped();
}

BatchScheduler::AttemptOutcome BatchScheduler::SimulateAttempt(
    uint64_t purchase_seed, int64_t task, int64_t attempt) const {
  // Pure function of (purchase seed, task index, attempt): the same
  // microtask retried later, or simulated on a different thread, always
  // draws the same worker.
  uint64_t seed = util::SplitSeed(purchase_seed, task);
  seed = util::SplitSeed(seed, attempt);
  util::Rng rng(seed);

  double pickup = 0.0;
  if (options_.mean_pickup_seconds > 0.0) {
    double u = rng.Uniform();
    while (u <= 0.0) u = rng.Uniform();
    pickup = -options_.mean_pickup_seconds * std::log(u);
  }
  double work = options_.mean_task_seconds;
  if (options_.task_time_sigma > 0.0) {
    work = std::exp(rng.Gaussian(lognormal_mu_, options_.task_time_sigma));
  }
  const bool abandoned = rng.Bernoulli(options_.abandon_probability);
  // Drawn after the honest-path coins so a zero rate leaves every existing
  // (seed, assignment) outcome untouched.
  const bool no_show = options_.no_show_probability > 0.0 &&
                       rng.Bernoulli(options_.no_show_probability);

  AttemptOutcome outcome;
  outcome.latency_seconds = pickup + work;
  outcome.expired = abandoned || no_show ||
                    outcome.latency_seconds > options_.deadline_seconds;
  // A no-show never returns: the round waits out the full deadline for it.
  if (no_show) outcome.latency_seconds = options_.deadline_seconds;
  return outcome;
}

void BatchScheduler::ExecuteRound() {
  CROWDTOPK_CHECK_EQ(running_, 0);

  const std::vector<TaskRun> wave = tracker_.TakeWave(
      round_, options_.crowd_workers, options_.per_pair_batch);
  // Task t of run r has outcome first[r] + t.
  std::vector<size_t> first(wave.size() + 1, 0);
  for (size_t r = 0; r < wave.size(); ++r) {
    first[r + 1] = first[r] + static_cast<size_t>(wave[r].count);
  }
  // Fan the wave simulation out on the thread pool: each outcome is a pure
  // function of its task's identity, so any worker count produces
  // identical results.
  std::vector<AttemptOutcome> outcomes(first.back());
  exec::ParallelFor(
      pool_, 0, static_cast<int64_t>(wave.size()), [&](int64_t r) {
        const TaskRun& run = wave[r];
        // The key is the query's seed_stream (== query_id unless a router
        // overrode it), so a re-dispatched query meets the same workers on
        // its new shard.
        const uint64_t purchase_seed = util::SplitSeed(
            util::SplitSeed(seed_, run.seed_stream), run.request_seq);
        for (int64_t t = 0; t < run.count; ++t) {
          outcomes[first[r] + t] =
              SimulateAttempt(purchase_seed, run.first_task + t, run.attempt);
        }
      });
  double duration = 0.0;
  bool any_expired = false;
  for (size_t r = 0; r < wave.size(); ++r) {
    const TaskRun& run = wave[r];
    Query& q = *queries_.at(run.query_id);
    for (int64_t t = 0; t < run.count; ++t) {
      const AttemptOutcome& outcome = outcomes[first[r] + t];
      switch (tracker_.Resolve(run, run.first_task + t, outcome.expired)) {
        case AssignmentTracker::Resolution::kCompleted:
          ++q.resolved_;
          duration = std::max(duration, outcome.latency_seconds);
          break;
        case AssignmentTracker::Resolution::kRequeued:
          ++q.stats_.expired_assignments;
          ++q.stats_.requeued_assignments;
          any_expired = true;
          break;
        case AssignmentTracker::Resolution::kFailed:
          // Give up on the microtask so the barrier can release; the query
          // is marked failed and the service reports the status instead of
          // the (already computed) answer.
          ++q.resolved_;
          ++q.stats_.expired_assignments;
          ++q.stats_.failed_assignments;
          any_expired = true;
          if (q.stats_.status.ok()) {
            q.stats_.status = util::Status::ResourceExhausted(
                "assignment for pair (" + std::to_string(run.item_i) + ", " +
                std::to_string(run.item_j) + ") of query " +
                std::to_string(run.query_id) + " expired " +
                std::to_string(tracker_.max_attempts()) + " times");
          }
          break;
      }
    }
  }
  // The round is a barrier: if anything expired, the platform waited out
  // the full deadline before requeueing.
  if (any_expired) duration = options_.deadline_seconds;
  ++round_;
  now_seconds_ += duration;

  // Every unfinished query is parked here. Count a driver as running
  // before waking it, so WaitQuiescent cannot miss it.
  for (auto& [id, q] : queries_) {
    if (q->finished_ || !q->BarrierMet()) continue;
    ++running_;
    q->wake_.release();
  }
}

}  // namespace crowdtopk::serve
