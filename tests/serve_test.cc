// Tests for the multi-query serving layer (src/serve): sync-algorithm
// equivalence through the AsyncPlatform bridge, scheduler fairness under
// saturation, straggler requeueing and bounded-retry failure, run-length
// wave selection against a task-at-a-time reference, admission overflow,
// bit-identity of the serve report across worker counts, and a service
// replayed more than once.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/heap_sort.h"
#include "baselines/quick_select.h"
#include "core/topk_algorithm.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "fault/injector.h"
#include "gtest/gtest.h"
#include "judgment/comparison.h"
#include "persist/format.h"
#include "serve/arrival.h"
#include "serve/assignment_tracker.h"
#include "serve/async_platform.h"
#include "serve/batch_scheduler.h"
#include "serve/query_service.h"
#include "serve/report.h"
#include "util/env.h"
#include "util/file_io.h"
#include "util/random.h"
#include "util/status.h"

namespace crowdtopk::serve {
namespace {

// A deterministic workload with a known shape: `rounds` batch rounds, each
// buying `per_round` preference microtasks on one pair, cycling through the
// dataset's pairs so the per-pair cap stays exercised. Stateless across
// Run() calls (concurrent_runs_safe).
class ScriptedAlgorithm : public core::TopKAlgorithm {
 public:
  ScriptedAlgorithm(int64_t rounds, int64_t per_round)
      : rounds_(rounds), per_round_(per_round) {}

  std::string name() const override { return "Scripted"; }

  core::TopKResult Run(crowd::CrowdPlatform* platform, int64_t k) override {
    std::vector<double> out;
    for (int64_t r = 0; r < rounds_; ++r) {
      platform->CollectPreferences(r % 3, r % 3 + 1, per_round_, &out);
      platform->NextRound();
    }
    core::TopKResult result;
    for (int64_t i = 0; i < k; ++i) result.items.push_back(i);
    result.total_microtasks = platform->total_microtasks();
    result.rounds = platform->rounds();
    return result;
  }

 private:
  int64_t rounds_;
  int64_t per_round_;
};

// Runs the minimal service loop for a standalone scheduler until `queries`
// admitted driver threads have finished; returns what each WaitQuiescent
// call returned.
std::vector<std::vector<int64_t>> PumpScheduler(BatchScheduler* scheduler,
                                                int64_t queries) {
  std::vector<std::vector<int64_t>> finished;
  int64_t done = 0;
  while (true) {
    finished.push_back(scheduler->WaitQuiescent());
    done += static_cast<int64_t>(finished.back().size());
    if (done == queries) return finished;
    scheduler->ExecuteRound();  // every unfinished driver is parked
  }
}

ScheduleOptions ReliableCrowd() {
  ScheduleOptions options;
  options.abandon_probability = 0.0;  // no stragglers unless a test asks
  return options;
}

// The core serving invariant: a query served through AsyncPlatform buys the
// exact answer, TMC, and private round count it would buy on a private
// CrowdPlatform with the same seed — sharing the crowd never changes what
// a query pays, only when its work gets scheduled.
TEST(AsyncPlatformTest, ServedQueryMatchesPrivateRun) {
  const auto dataset = data::MakeUniformLadder(20, 1.0, 0.6);
  judgment::ComparisonOptions comparison;
  baselines::HeapSortTopK algorithm(comparison);

  crowd::CrowdPlatform direct(dataset.get(), /*seed=*/123);
  const core::TopKResult expected = algorithm.Run(&direct, 5);

  BatchScheduler scheduler(ReliableCrowd(), /*seed=*/999, nullptr);
  BatchScheduler::Query* query = scheduler.AdmitQuery(0);
  core::TopKResult served;
  int64_t served_microtasks = 0;
  int64_t served_rounds = 0;
  std::thread driver([&] {
    AsyncPlatform platform(dataset.get(), /*seed=*/123, query);
    served = algorithm.Run(&platform, 5);
    platform.Drain();
    served_microtasks = platform.total_microtasks();
    served_rounds = platform.rounds();
    query->Finish();
  });
  PumpScheduler(&scheduler, 1);
  driver.join();

  EXPECT_EQ(served.items, expected.items);
  EXPECT_EQ(served_microtasks, direct.total_microtasks());
  EXPECT_EQ(served_rounds, direct.rounds());
}

// Drivers woken by one round finish in whatever order the OS runs them;
// WaitQuiescent still returns their ids ascending, the order the persist
// digest and the cache commits rely on. Admission runs in descending id
// order, so admission order does not give that for free.
TEST(SchedulerTest, QueriesFinishingTogetherReturnInIdOrder) {
  BatchScheduler scheduler(ReliableCrowd(), /*seed=*/5, nullptr);
  std::vector<BatchScheduler::Query*> queries(8);
  for (int64_t id = 7; id >= 0; --id) queries[id] = scheduler.AdmitQuery(id);
  std::vector<std::thread> drivers;
  for (BatchScheduler::Query* query : queries) {
    drivers.emplace_back([query] {
      query->PostPurchase(0, 1, /*count=*/3);
      query->Barrier(1);
      query->Finish();
    });
  }
  const std::vector<std::vector<int64_t>> finished =
      PumpScheduler(&scheduler, 8);
  for (std::thread& driver : drivers) driver.join();

  ASSERT_EQ(finished.size(), 2u);
  EXPECT_TRUE(finished[0].empty());  // all eight parked at round 0
  EXPECT_EQ(finished[1], (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  for (int64_t id = 0; id < 8; ++id) {
    EXPECT_EQ(scheduler.QueryStats(id).finished_round, 1);
  }
  EXPECT_EQ(scheduler.assignment_stats().completed, 24);
}

// A serving time of inf or NaN is refused by name: an infinite deadline
// would print "makespan inf s" and put bare inf tokens, which are not JSON,
// into the JSONL report.
TEST(SchedulerTest, NonFiniteTimesAreRefused) {
  const std::pair<double ScheduleOptions::*, std::string> fields[] = {
      {&ScheduleOptions::mean_pickup_seconds, "mean_pickup_seconds"},
      {&ScheduleOptions::mean_task_seconds, "mean_task_seconds"},
      {&ScheduleOptions::task_time_sigma, "task_time_sigma"},
      {&ScheduleOptions::deadline_seconds, "deadline_seconds"},
  };
  for (const auto& [field, name] : fields) {
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
      SCOPED_TRACE(name + " = " + std::to_string(bad));
      ScheduleOptions options;
      options.*field = bad;
      const util::Status status = CheckScheduleOptions(options);
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
      EXPECT_EQ(status.message().rfind(name + " must be finite", 0), 0u)
          << status.message();
    }
  }
}

// Round-robin wave selection must not starve anyone: four identical
// saturating queries (combined demand = 2x the crowd's W slots) have to
// finish within a couple of global rounds of each other.
TEST(SchedulerTest, FairnessUnderSaturation) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/6, /*per_round=*/10);

  ServeOptions options;
  options.schedule = ReliableCrowd();
  options.schedule.crowd_workers = 20;   // demand: 4 queries x 10 = 40
  options.schedule.per_pair_batch = 10;
  options.max_inflight = 4;
  options.jobs = 1;

  std::vector<QueryRequest> requests(4);
  for (QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes =
      service.Replay(requests, std::vector<double>(4, 0.0));

  int64_t min_rounds = outcomes[0].rounds_observed;
  int64_t max_rounds = outcomes[0].rounds_observed;
  for (const QueryOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    min_rounds = std::min(min_rounds, outcome.rounds_observed);
    max_rounds = std::max(max_rounds, outcome.rounds_observed);
  }
  // Everyone needed >= 2 global rounds per script round (demand 2x W), and
  // the round-robin keeps the finish spread within one extra round.
  EXPECT_GE(min_rounds, 12);
  EXPECT_LE(max_rounds - min_rounds, 1);
}

// Stragglers: with a high abandonment rate, assignments must observably
// expire and be requeued, yet every query still completes successfully as
// long as retries remain.
TEST(SchedulerTest, ExpiredAssignmentsAreRequeued) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/4, /*per_round=*/15);

  ServeOptions options;
  options.schedule.abandon_probability = 0.5;
  options.schedule.max_attempts = 16;
  options.jobs = 1;

  std::vector<QueryRequest> requests(2);
  for (QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes =
      service.Replay(requests, {0.0, 0.0});

  for (const QueryOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  const AssignmentStats stats = service.assignment_stats();
  EXPECT_GT(stats.expired, 0);
  EXPECT_GT(stats.requeued, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.completed, outcomes[0].total_microtasks +
                                 outcomes[1].total_microtasks);
  // The per-query telemetry sees the same retries.
  EXPECT_GT(outcomes[0].requeued_assignments + outcomes[1].requeued_assignments,
            0);
}

// Bounded retries: when every attempt is abandoned, each assignment fails
// after max_attempts and the query is reported kResourceExhausted — but the
// replay still terminates and returns an outcome (no deadlock on the
// barrier).
TEST(SchedulerTest, BoundedRetriesFailTheQuery) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/2, /*per_round=*/5);

  ServeOptions options;
  options.schedule.abandon_probability = 1.0;
  options.schedule.max_attempts = 2;
  options.jobs = 1;

  std::vector<QueryRequest> requests(1);
  requests[0].algorithm = &algorithm;
  requests[0].dataset = dataset.get();
  requests[0].k = 3;
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes = service.Replay(requests, {0.0});

  EXPECT_FALSE(outcomes[0].rejected);
  EXPECT_EQ(outcomes[0].status.code(), util::StatusCode::kResourceExhausted);
  const AssignmentStats stats = service.assignment_stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 10);              // 2 rounds x 5 microtasks
  EXPECT_EQ(stats.scheduled, 2 * stats.failed);  // max_attempts each
}

// No-show faults (fault::FaultPlan::no_show_fraction routed through
// ScheduleOptions::no_show_probability): assignments that never return must
// expire at the round deadline, surface in the serve/* retry counters of
// the query outcome, and — with retries left — still let every query
// complete.
TEST(SchedulerTest, NoShowFaultsExpireRequeueAndRecover) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/4, /*per_round=*/15);

  fault::FaultPlan plan;
  plan.no_show_fraction = 0.4;

  ServeOptions options;
  options.schedule = ReliableCrowd();  // isolate the no-show fault
  options.schedule.no_show_probability = fault::NoShowProbability(plan);
  options.schedule.max_attempts = 16;
  options.jobs = 1;

  std::vector<QueryRequest> requests(2);
  for (QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes = service.Replay(requests, {0.0, 0.0});

  int64_t expired = 0, requeued = 0;
  for (const QueryOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    expired += outcome.expired_assignments;
    requeued += outcome.requeued_assignments;
  }
  // ~40% of attempts are no-shows, so retries must be visible per query.
  EXPECT_GT(expired, 0);
  EXPECT_GT(requeued, 0);
  const AssignmentStats stats = service.assignment_stats();
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.expired, expired);
  EXPECT_EQ(stats.completed, outcomes[0].total_microtasks +
                                 outcomes[1].total_microtasks);
}

// An all-no-show crowd: every attempt waits out the full deadline, bounded
// retries kick in, and the query ends kResourceExhausted without stalling
// the replay loop.
TEST(SchedulerTest, AllNoShowCrowdFailsBoundedWithoutStalling) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/2, /*per_round=*/5);

  ServeOptions options;
  options.schedule = ReliableCrowd();
  options.schedule.no_show_probability = 1.0;
  options.schedule.max_attempts = 3;
  options.schedule.deadline_seconds = 60.0;
  options.jobs = 1;

  std::vector<QueryRequest> requests(1);
  requests[0].algorithm = &algorithm;
  requests[0].dataset = dataset.get();
  requests[0].k = 3;
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes = service.Replay(requests, {0.0});

  EXPECT_FALSE(outcomes[0].rejected);
  EXPECT_EQ(outcomes[0].status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(outcomes[0].expired_assignments, outcomes[0].requeued_assignments +
                                                 10);  // 10 permanent failures
  const AssignmentStats stats = service.assignment_stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 10);              // 2 rounds x 5 microtasks
  EXPECT_EQ(stats.scheduled, 3 * stats.failed);  // max_attempts each
  // Every expiring round waited out the deadline on the simulated clock.
  EXPECT_GE(service.makespan_seconds(), 3 * options.schedule.deadline_seconds);
}

// ----- wave selection against a task-at-a-time reference --------------------

// One microtask: (query, request_seq, task, item_i, item_j, attempt).
using Task = std::array<int64_t, 6>;
using TasksByQuery = std::map<int64_t, std::vector<Task>>;

// The reference model: a tracker with one FIFO entry per microtask whose
// wave serves the queries one task per pass in rotation order, skipping a
// query whose head pair already has eta tasks in the wave.
struct ReferenceTracker {
  int64_t max_attempts = 1;
  std::map<int64_t, std::deque<Task>> pending;
  AssignmentStats stats;

  void Enqueue(const TaskRun& run) {
    for (int64_t t = 0; t < run.count; ++t) {
      pending[run.query_id].push_back(
          {run.query_id, run.request_seq, t, run.item_i, run.item_j, 0});
    }
    stats.enqueued += run.count;
  }

  std::vector<Task> TakeWave(int64_t rotation, int64_t capacity,
                             int64_t per_pair_cap) {
    std::vector<Task> wave;
    std::vector<int64_t> queries;
    for (const auto& [query, fifo] : pending) {
      if (!fifo.empty()) queries.push_back(query);
    }
    if (queries.empty()) return wave;
    std::map<std::array<int64_t, 3>, int64_t> taken;  // (query, i, j)
    const size_t start = static_cast<size_t>(rotation) % queries.size();
    const size_t cap = static_cast<size_t>(std::max<int64_t>(capacity, 0));
    for (bool progress = true; progress && wave.size() < cap;) {
      progress = false;
      for (size_t s = 0; s < queries.size() && wave.size() < cap; ++s) {
        std::deque<Task>& fifo = pending[queries[(start + s) % queries.size()]];
        if (fifo.empty()) continue;
        const Task& head = fifo.front();
        int64_t& pair_count = taken[{head[0], head[3], head[4]}];
        if (pair_count >= per_pair_cap) continue;
        ++pair_count;
        wave.push_back(head);
        fifo.pop_front();
        progress = true;
      }
    }
    stats.scheduled += static_cast<int64_t>(wave.size());
    return wave;
  }

  void Resolve(Task task, bool expired) {
    if (!expired) {
      ++stats.completed;
      return;
    }
    ++stats.expired;
    if (task[5] + 1 >= max_attempts) {
      ++stats.failed;
      return;
    }
    ++task[5];
    pending[task[0]].push_front(task);
    ++stats.requeued;
  }
};

TasksByQuery ByQuery(const std::vector<Task>& tasks) {
  TasksByQuery by_query;
  for (const Task& t : tasks) by_query[t[0]].push_back(t);
  return by_query;
}

std::vector<Task> Expand(const std::vector<TaskRun>& runs) {
  std::vector<Task> tasks;
  for (const TaskRun& r : runs) {
    for (int64_t t = r.first_task; t < r.first_task + r.count; ++t) {
      tasks.push_back({r.query_id, r.request_seq, t, r.item_i, r.item_j,
                       r.attempt});
    }
  }
  return tasks;
}

void ExpectSameStats(const AssignmentStats& a, const AssignmentStats& b) {
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.requeued, b.requeued);
  EXPECT_EQ(a.failed, b.failed);
}

// The run-length tracker must hand every query exactly the tasks the
// task-at-a-time round-robin hands it, in the same order, and leave the
// same queues behind: random purchases over 7 queries (repeated and graded
// pairs, runs longer than eta), random capacities, eta, attempts,
// rotations and expiries.
TEST(AssignmentTrackerTest, WavesMatchTaskAtATimeRoundRobin) {
  constexpr int64_t kQueries = 7;
  constexpr int64_t kUnlimited = int64_t{1} << 40;
  util::Rng rng(20170514);
  int64_t split_runs = 0;
  AssignmentStats totals;
  for (int64_t c = 0; c < 2000; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const uint64_t case_seed = rng.NextUint64();
    const int64_t max_attempts = rng.UniformInt(1, 4);
    const int64_t eta = rng.UniformInt(1, 40);
    const int64_t expire_permille = rng.UniformInt(0, 600);
    // Expiry is a pure function of the task, as in the scheduler.
    const auto expires = [&](const Task& task) {
      uint64_t h = case_seed;
      for (const int64_t field : task) {
        h = util::SplitSeed(h, static_cast<uint64_t>(field));
      }
      return static_cast<int64_t>(h % 1000) < expire_permille;
    };
    AssignmentTracker tracker(max_attempts);
    ReferenceTracker reference;
    reference.max_attempts = max_attempts;
    std::vector<int64_t> next_request(kQueries, 0);
    for (int64_t waves = rng.UniformInt(1, 30); waves > 0; --waves) {
      for (int64_t p = rng.UniformInt(0, 4); p > 0; --p) {
        TaskRun run;
        run.query_id = rng.UniformInt(kQueries);
        run.seed_stream = run.query_id;
        run.request_seq = next_request[run.query_id]++;
        run.count = rng.UniformInt(1, 60);
        run.item_i = rng.UniformInt(4);
        run.item_j = rng.Bernoulli(0.2) ? -1 : rng.UniformInt(4);
        tracker.Enqueue(run);
        reference.Enqueue(run);
      }
      const int64_t rotation = rng.UniformInt(0, 1000);
      const int64_t capacity = rng.UniformInt(0, 250);
      const std::vector<TaskRun> runs =
          tracker.TakeWave(rotation, capacity, eta);
      const std::vector<Task> expected =
          reference.TakeWave(rotation, capacity, eta);
      ASSERT_EQ(ByQuery(Expand(runs)), ByQuery(expected));
      for (const TaskRun& run : runs) {
        split_runs += run.first_task > 0 && run.attempt == 0;
        for (int64_t t = run.first_task; t < run.first_task + run.count; ++t) {
          tracker.Resolve(run, t,
                          expires({run.query_id, run.request_seq, t,
                                   run.item_i, run.item_j, run.attempt}));
        }
      }
      for (const Task& task : expected) reference.Resolve(task, expires(task));
      ExpectSameStats(tracker.stats(), reference.stats);
      // Compare the queues left behind by draining copies of both.
      AssignmentTracker rest = tracker;
      ReferenceTracker reference_rest = reference;
      ASSERT_EQ(ByQuery(Expand(rest.TakeWave(0, kUnlimited, kUnlimited))),
                ByQuery(reference_rest.TakeWave(0, kUnlimited, kUnlimited)));
    }
    totals.scheduled += tracker.stats().scheduled;
    totals.requeued += tracker.stats().requeued;
    totals.failed += tracker.stats().failed;
  }
  // The cases reached every path: partial runs, retries and failures.
  EXPECT_GT(split_runs, 0);
  EXPECT_GT(totals.requeued, 0);
  EXPECT_GT(totals.failed, 0);
  EXPECT_GT(totals.scheduled, 100000);
}

// A bounded admission queue rejects arrivals that find both the in-flight
// window and the queue full.
TEST(QueryServiceTest, AdmissionQueueOverflowRejects) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/4, /*per_round=*/5);

  ServeOptions options;
  options.schedule = ReliableCrowd();
  options.max_inflight = 1;
  options.max_queue = 0;
  options.jobs = 1;

  std::vector<QueryRequest> requests(2);
  for (QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  // Query 1 arrives while query 0 is still in flight (rounds take ~15 s
  // each) and there is no queue to wait in.
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes =
      service.Replay(requests, {0.0, 10.0});

  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_FALSE(outcomes[0].rejected);
  EXPECT_TRUE(outcomes[1].rejected);
  EXPECT_EQ(outcomes[1].status.code(), util::StatusCode::kResourceExhausted);
}

// The determinism contract of the whole layer: same options + seed + trace
// => bit-identical rendered report and per-query table for any worker
// count, stragglers included. The second input wakes up to 64 drivers per
// round and commits the cache inserts of all of them at each barrier.
TEST(QueryServiceTest, ReportBitIdenticalAcrossJobs) {
  const auto dataset = data::MakeUniformLadder(16, 1.0, 0.8);
  judgment::ComparisonOptions comparison;
  baselines::HeapSortTopK heap(comparison);
  baselines::QuickSelectTopK quick(comparison);
  core::TopKAlgorithm* algorithms[] = {&heap, &quick};

  struct Input {
    std::vector<double> arrivals;
    int64_t max_inflight;
    bool cache;
  };
  const Input inputs[] = {
      {PoissonArrivals(10, 0.01, 77), 4, false},
      {std::vector<double>(96, 0.0), 64, true},  // all arrive together
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.max_inflight);
    const int64_t n = static_cast<int64_t>(input.arrivals.size());
    std::vector<QueryRequest> requests(n);
    for (int64_t q = 0; q < n; ++q) {
      requests[q].algorithm = algorithms[q % 2];
      requests[q].dataset = dataset.get();
      requests[q].k = 4;
    }

    std::string rendered[2];
    std::string tables[2];
    const int64_t jobs[] = {1, 8};
    for (int v = 0; v < 2; ++v) {
      ServeOptions options;
      options.schedule.abandon_probability = 0.1;  // exercise requeues too
      options.max_inflight = input.max_inflight;
      options.jobs = jobs[v];
      options.seed = 77;
      options.cache.enabled = input.cache;
      QueryService service(options);
      const std::vector<QueryOutcome> outcomes =
          service.Replay(requests, input.arrivals);
      rendered[v] = RenderServeReport(BuildServeReport(
          outcomes, service.assignment_stats(), service.makespan_seconds(),
          service.total_rounds()));
      tables[v] = RenderQueryTable(outcomes);
      if (input.cache) {
        EXPECT_GT(service.cache_stats().hits, 0);
      }
    }
    EXPECT_EQ(rendered[0], rendered[1]);
    EXPECT_EQ(tables[0], tables[1]);
  }
}

// Clients choose alpha, and the process-wide t-critical memo holds 64
// alphas. Eighty queries with eighty alphas in flight at once keep emptying
// it while other drivers read and fill it; each query must still get what
// it gets when it runs alone. The ladder is tight enough that comparisons
// run past the minimum workload, so every purchase reads the memo.
TEST(QueryServiceTest, EightyAlphasInFlightMatchOneAtATime) {
  constexpr int64_t kQueries = 80;
  const auto dataset = data::MakeUniformLadder(16, 0.25, 1.0);
  std::vector<std::unique_ptr<baselines::HeapSortTopK>> algorithms;
  std::vector<QueryRequest> requests(kQueries);
  for (int64_t q = 0; q < kQueries; ++q) {
    judgment::ComparisonOptions comparison;
    comparison.alpha = 0.01 + 0.001 * static_cast<double>(q);
    algorithms.push_back(
        std::make_unique<baselines::HeapSortTopK>(comparison));
    requests[q].algorithm = algorithms.back().get();
    requests[q].dataset = dataset.get();
    requests[q].k = 4;
  }
  std::vector<QueryOutcome> outcomes[2];
  const int64_t inflight[] = {1, kQueries};
  for (int v = 0; v < 2; ++v) {
    ServeOptions options;
    options.schedule = ReliableCrowd();
    options.max_inflight = inflight[v];
    options.seed = 77;
    QueryService service(options);
    outcomes[v] =
        service.Replay(requests, std::vector<double>(kQueries, 0.0));
  }
  for (int64_t q = 0; q < kQueries; ++q) {
    SCOPED_TRACE(q);
    EXPECT_TRUE(outcomes[1][q].status.ok());
    EXPECT_EQ(outcomes[1][q].items, outcomes[0][q].items);
    EXPECT_EQ(outcomes[1][q].total_microtasks,
              outcomes[0][q].total_microtasks);
    EXPECT_EQ(outcomes[1][q].rounds_private, outcomes[0][q].rounds_private);
  }
}

// Byte image of a cache export, for exact comparison.
std::string CacheImage(const std::vector<cache::ExportedEntry>& entries) {
  persist::Encoder enc;
  for (const cache::ExportedEntry& e : entries) {
    persist::EncodeCacheEntry(e, &enc);
  }
  return enc.Take();
}

void ExpectSameOutcomes(const std::vector<QueryOutcome>& a,
                        const std::vector<QueryOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].query_id, b[i].query_id);
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].status.ToString(), b[i].status.ToString());
    EXPECT_EQ(a[i].rejected, b[i].rejected);
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].start_seconds, b[i].start_seconds);
    EXPECT_EQ(a[i].finish_seconds, b[i].finish_seconds);
    EXPECT_EQ(a[i].latency_seconds, b[i].latency_seconds);
    EXPECT_EQ(a[i].rounds_observed, b[i].rounds_observed);
    EXPECT_EQ(a[i].rounds_private, b[i].rounds_private);
    EXPECT_EQ(a[i].total_microtasks, b[i].total_microtasks);
    EXPECT_EQ(a[i].expired_assignments, b[i].expired_assignments);
    EXPECT_EQ(a[i].requeued_assignments, b[i].requeued_assignments);
    EXPECT_EQ(a[i].precision_at_k, b[i].precision_at_k);
    EXPECT_EQ(a[i].items, b[i].items);
    EXPECT_EQ(a[i].cache_hits, b[i].cache_hits);
    EXPECT_EQ(a[i].cache_topups, b[i].cache_topups);
    EXPECT_EQ(a[i].cache_inferred, b[i].cache_inferred);
    EXPECT_EQ(a[i].cache_misses, b[i].cache_misses);
    EXPECT_EQ(a[i].cache_seeded_samples, b[i].cache_seeded_samples);
  }
}

void ExpectSameAggregates(const QueryService& a, const QueryService& b) {
  EXPECT_EQ(a.assignment_stats().enqueued, b.assignment_stats().enqueued);
  EXPECT_EQ(a.assignment_stats().scheduled, b.assignment_stats().scheduled);
  EXPECT_EQ(a.assignment_stats().completed, b.assignment_stats().completed);
  EXPECT_EQ(a.assignment_stats().expired, b.assignment_stats().expired);
  EXPECT_EQ(a.assignment_stats().requeued, b.assignment_stats().requeued);
  EXPECT_EQ(a.assignment_stats().failed, b.assignment_stats().failed);
  EXPECT_EQ(a.makespan_seconds(), b.makespan_seconds());
  EXPECT_EQ(a.total_rounds(), b.total_rounds());
}

// A service may replay again: each call starts a fresh scheduler against
// the service's one cache, so the second call returns exactly what a fresh
// service holding that cache returns — timing columns included. Without a
// cache that is a fresh service; with one, a fresh service restored from
// the first call's export.
TEST(QueryServiceTest, SecondReplayMatchesFreshServiceHoldingTheSameCache) {
  const auto dataset = data::MakeUniformLadder(16, 1.0, 0.8);
  judgment::ComparisonOptions comparison;
  baselines::HeapSortTopK heap(comparison);
  baselines::QuickSelectTopK quick(comparison);
  core::TopKAlgorithm* algorithms[] = {&heap, &quick};

  // Two batches over one universe, stamped with distinct seed streams.
  const auto batch = [&](int64_t first_stream) {
    std::vector<QueryRequest> requests(6);
    for (int64_t q = 0; q < 6; ++q) {
      requests[q].algorithm = algorithms[q % 2];
      requests[q].dataset = dataset.get();
      requests[q].k = 4;
      requests[q].cache_universe = 0;
      requests[q].seed_stream = first_stream + q;
    }
    return requests;
  };
  const std::vector<QueryRequest> first = batch(0);
  const std::vector<QueryRequest> second = batch(100);
  const std::vector<double> arrivals = PoissonArrivals(6, 0.01, 77);

  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cache on" : "cache off");
    ServeOptions options;
    options.schedule.abandon_probability = 0.1;  // exercise requeues too
    options.max_inflight = 3;
    options.jobs = 4;  // the service's one pool serves both calls
    options.seed = 77;
    options.cache.enabled = cached;

    QueryService twice(options);
    twice.Replay(first, arrivals);
    const std::vector<cache::ExportedEntry> image = twice.ExportCache();
    EXPECT_EQ(image.empty(), !cached);
    const std::vector<QueryOutcome> again = twice.Replay(second, arrivals);

    QueryService fresh(options);
    fresh.RestoreCache(image);
    const std::vector<QueryOutcome> expected = fresh.Replay(second, arrivals);

    ExpectSameOutcomes(again, expected);
    ExpectSameAggregates(twice, fresh);
    EXPECT_EQ(CacheImage(twice.ExportCache()), CacheImage(fresh.ExportCache()));
    int64_t hits = 0;
    for (const QueryOutcome& o : again) hits += o.cache_hits;
    EXPECT_EQ(hits > 0, cached) << "the second call never read the cache";
  }
}

// Byte-compares `rendered` with tests/golden/`name`, or rewrites the golden
// when CROWDTOPK_UPDATE_GOLDEN=1.
void ExpectMatchesGolden(const std::string& rendered,
                         const std::string& name) {
  const std::string golden_path =
      std::string(CROWDTOPK_GOLDEN_DIR) + "/" + name;
  if (util::GetEnvBool("CROWDTOPK_UPDATE_GOLDEN", false)) {
    ASSERT_TRUE(util::WriteFileAtomic(golden_path, rendered).ok());
    GTEST_SKIP() << "golden updated: " << golden_path;
  }
  std::string golden;
  ASSERT_TRUE(util::ReadFileToString(golden_path, &golden).ok())
      << "missing " << golden_path
      << " — run once with CROWDTOPK_UPDATE_GOLDEN=1";
  EXPECT_EQ(rendered, golden)
      << "ServeReport JSONL drifted from " << name << "; if intentional, "
         "regenerate the golden with CROWDTOPK_UPDATE_GOLDEN=1 and commit it";
}

// Pins the machine-readable report schema to a golden file. The JSONL
// output is what the crash-recovery CI job byte-diffs and what external
// dashboards parse, so schema drift must be a deliberate, reviewed act:
// regenerate with CROWDTOPK_UPDATE_GOLDEN=1 (writes the golden in the
// source tree) and commit the diff.
TEST(ReportTest, JsonlMatchesGoldenFile) {
  const auto dataset = data::MakeUniformLadder(12, 1.0, 0.8);
  judgment::ComparisonOptions comparison;
  baselines::HeapSortTopK heap(comparison);
  baselines::QuickSelectTopK quick(comparison);
  core::TopKAlgorithm* algorithms[] = {&heap, &quick};

  const std::vector<double> arrivals = PoissonArrivals(6, 0.01, 2017);
  std::vector<QueryRequest> requests(6);
  for (int64_t q = 0; q < 6; ++q) {
    requests[q].algorithm = algorithms[q % 2];
    requests[q].dataset = dataset.get();
    requests[q].k = 3;
  }

  ServeOptions options;
  options.schedule.abandon_probability = 0.1;  // exercise requeue columns
  options.max_inflight = 2;
  options.max_queue = 2;  // force at least one REJECTED row
  options.jobs = 1;
  options.seed = 2017;
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes = service.Replay(requests, arrivals);
  const std::string rendered = RenderServeReportJsonl(
      BuildServeReport(outcomes, service.assignment_stats(),
                       service.makespan_seconds(), service.total_rounds()),
      outcomes);
  ExpectMatchesGolden(rendered, "serve_report.jsonl");
}

// A straggler-heavy replay pinned to its own golden: eta 7 splits the
// baselines' purchases across waves, W 37 leaves partial waves, and at
// abandon 0.15 with 3 attempts half the queries FAIL. Every wave
// selection and requeue order shows in the bytes, the jobs-4 wave
// simulation must render the same ones, and each FAILED query's status
// must name the same first failed pair.
TEST(ReportTest, StragglerJsonlMatchesGoldenFile) {
  const auto dataset = data::MakeUniformLadder(12, 1.0, 0.8);
  judgment::ComparisonOptions comparison;
  baselines::HeapSortTopK heap(comparison);
  baselines::QuickSelectTopK quick(comparison);
  core::TopKAlgorithm* algorithms[] = {&heap, &quick};

  const std::vector<double> arrivals = PoissonArrivals(8, 0.01, 2017);
  std::vector<QueryRequest> requests(8);
  for (int64_t q = 0; q < 8; ++q) {
    requests[q].algorithm = algorithms[q % 2];
    requests[q].dataset = dataset.get();
    requests[q].k = 3;
  }

  auto render = [&](int64_t jobs, std::vector<std::string>* statuses) {
    ServeOptions options;
    options.schedule.crowd_workers = 37;
    options.schedule.per_pair_batch = 7;
    options.schedule.abandon_probability = 0.15;
    options.schedule.max_attempts = 3;
    options.max_inflight = 4;
    options.jobs = jobs;
    options.seed = 2017;
    QueryService service(options);
    const std::vector<QueryOutcome> outcomes =
        service.Replay(requests, arrivals);
    if (statuses != nullptr) {
      for (const QueryOutcome& o : outcomes) {
        statuses->push_back(o.status.ToString());
      }
    }
    return RenderServeReportJsonl(
        BuildServeReport(outcomes, service.assignment_stats(),
                         service.makespan_seconds(), service.total_rounds()),
        outcomes);
  };
  std::vector<std::string> statuses;
  const std::string rendered = render(1, &statuses);
  EXPECT_EQ(render(4, nullptr), rendered);
  // The report prints only FAILED; the status names the first pair whose
  // microtask ran out of attempts, in the query's own FIFO order.
  const auto failed = [](int64_t query, const std::string& pair) {
    return "RESOURCE_EXHAUSTED: assignment for pair " + pair + " of query " +
           std::to_string(query) + " expired 3 times";
  };
  const std::vector<std::string> expected = {
      failed(0, "(3, 4)"), failed(1, "(4, 10)"), "OK", failed(3, "(0, 9)"),
      failed(4, "(5, 8)"), "OK", "OK", "OK"};
  EXPECT_EQ(statuses, expected);
  ExpectMatchesGolden(rendered, "serve_report_stragglers.jsonl");
}

// ----- golden JSONL round trip ---------------------------------------------

// Raw value text of `"key":` in one fixed-schema JSONL line: the quoted
// body for strings, the bracketed body for arrays, the token up to the
// next delimiter otherwise. The schema is printf-generated with a fixed
// key order, so plain substring extraction is exact.
std::string JsonValue(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << "no \"" << key << "\" in: " << line;
  if (pos == std::string::npos) return "";
  const size_t begin = pos + needle.size();
  if (line[begin] == '"') {
    const size_t end = line.find('"', begin + 1);
    return line.substr(begin + 1, end - begin - 1);
  }
  if (line[begin] == '[') {
    const size_t end = line.find(']', begin);
    return line.substr(begin, end - begin + 1);
  }
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

int64_t JsonInt(const std::string& line, const std::string& key) {
  return std::strtoll(JsonValue(line, key).c_str(), nullptr, 10);
}

double JsonDouble(const std::string& line, const std::string& key) {
  return std::strtod(JsonValue(line, key).c_str(), nullptr);
}

// Round trip through the pinned report: parse the golden JSONL back into
// ServeReport + QueryOutcome structs, re-render, and byte-diff against the
// golden. JsonlMatchesGoldenFile pins render(fresh replay); this pins
// render(parse(x)) == x, so the schema stays faithfully parseable — a
// consumer can reconstruct every rendered field, including the %.6f
// doubles, with no information lost to formatting.
TEST(ReportTest, GoldenJsonlReparsesAndRerendersByteIdentically) {
  if (util::GetEnvBool("CROWDTOPK_UPDATE_GOLDEN", false)) {
    GTEST_SKIP() << "goldens being regenerated; see JsonlMatchesGoldenFile";
  }
  const std::string golden_path =
      std::string(CROWDTOPK_GOLDEN_DIR) + "/serve_report.jsonl";
  std::string golden;
  ASSERT_TRUE(util::ReadFileToString(golden_path, &golden).ok())
      << "missing " << golden_path
      << " — run once with CROWDTOPK_UPDATE_GOLDEN=1";

  ServeReport report;
  std::vector<QueryOutcome> outcomes;
  size_t pos = 0;
  while (pos < golden.size()) {
    const size_t eol = golden.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "golden must end with a newline";
    const std::string line = golden.substr(pos, eol - pos);
    pos = eol + 1;
    const std::string record = JsonValue(line, "record");
    if (record == "summary") {
      report.queries = JsonInt(line, "queries");
      report.completed = JsonInt(line, "completed");
      report.failed = JsonInt(line, "failed");
      report.rejected = JsonInt(line, "rejected");
      report.makespan_seconds = JsonDouble(line, "makespan_seconds");
      report.total_rounds = JsonInt(line, "total_rounds");
      report.throughput_per_hour = JsonDouble(line, "throughput_per_hour");
      report.total_microtasks = JsonInt(line, "total_microtasks");
      report.mean_queue_wait_seconds =
          JsonDouble(line, "mean_queue_wait_seconds");
      report.mean_precision = JsonDouble(line, "mean_precision");
      report.p50_rounds = JsonDouble(line, "p50_rounds");
      report.p95_rounds = JsonDouble(line, "p95_rounds");
      report.p99_rounds = JsonDouble(line, "p99_rounds");
      report.p50_seconds = JsonDouble(line, "p50_seconds");
      report.p95_seconds = JsonDouble(line, "p95_seconds");
      report.p99_seconds = JsonDouble(line, "p99_seconds");
      report.assignments.scheduled = JsonInt(line, "assignments_scheduled");
      report.assignments.completed = JsonInt(line, "assignments_completed");
      report.assignments.expired = JsonInt(line, "assignments_expired");
      report.assignments.requeued = JsonInt(line, "assignments_requeued");
      report.assignments.failed = JsonInt(line, "assignments_failed");
      continue;
    }
    ASSERT_EQ(record, "query") << line;
    QueryOutcome o;
    o.query_id = JsonInt(line, "query_id");
    o.algorithm = JsonValue(line, "algorithm");
    const std::string status = JsonValue(line, "status");
    o.rejected = status == "REJECTED";
    if (status == "FAILED") o.status = util::Status::Internal("parsed");
    o.arrival_seconds = JsonDouble(line, "arrival_seconds");
    o.start_seconds = JsonDouble(line, "start_seconds");
    o.finish_seconds = JsonDouble(line, "finish_seconds");
    o.latency_seconds = JsonDouble(line, "latency_seconds");
    o.rounds_observed = JsonInt(line, "rounds_observed");
    o.rounds_private = JsonInt(line, "rounds_private");
    o.total_microtasks = JsonInt(line, "total_microtasks");
    o.expired_assignments = JsonInt(line, "expired_assignments");
    o.requeued_assignments = JsonInt(line, "requeued_assignments");
    o.precision_at_k = JsonDouble(line, "precision_at_k");
    o.cache_hits = JsonInt(line, "cache_hits");
    o.cache_topups = JsonInt(line, "cache_topups");
    o.cache_inferred = JsonInt(line, "cache_inferred");
    o.cache_misses = JsonInt(line, "cache_misses");
    std::string items = JsonValue(line, "items");
    ASSERT_GE(items.size(), 2u) << line;
    items = items.substr(1, items.size() - 2);  // strip [ ]
    for (size_t start = 0; start < items.size();) {
      size_t comma = items.find(',', start);
      if (comma == std::string::npos) comma = items.size();
      o.items.push_back(static_cast<crowd::ItemId>(
          std::strtoll(items.substr(start, comma - start).c_str(), nullptr,
                       10)));
      start = comma + 1;
    }
    outcomes.push_back(std::move(o));
  }
  ASSERT_GT(outcomes.size(), 0u);
  EXPECT_EQ(RenderServeReportJsonl(report, outcomes), golden)
      << "parse -> render is not the identity on the pinned report";
}

// Nearest-rank percentile sanity.
TEST(ReportTest, PercentileNearestRank) {
  const std::vector<double> values = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(values, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(values, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(values, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({}, 50.0), 0.0);
}

}  // namespace
}  // namespace crowdtopk::serve
