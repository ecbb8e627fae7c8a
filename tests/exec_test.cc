// Tests for the parallel experiment-execution subsystem (src/exec): the
// thread pool, deterministic parallel_for, run registry (resume), run
// engine, and — the property everything above exists to guarantee —
// bit-identical bench results for any worker count.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/heap_sort.h"
#include "baselines/tournament_tree.h"
#include "bench/harness.h"
#include "core/spr.h"
#include "data/generators.h"
#include "exec/parallel_for.h"
#include "exec/run_engine.h"
#include "exec/thread_pool.h"
#include "util/random.h"

namespace crowdtopk {
namespace {

// ---------------------------------------------------------------- SplitSeed

TEST(SplitSeedTest, IsPureFunctionOfSeedAndStream) {
  EXPECT_EQ(util::SplitSeed(1, 0), util::SplitSeed(1, 0));
  EXPECT_NE(util::SplitSeed(1, 0), util::SplitSeed(1, 1));
  EXPECT_NE(util::SplitSeed(1, 0), util::SplitSeed(2, 0));
  // Nearby seeds and streams must not collide (a weak mixing function
  // would map (seed, stream) and (seed + 1, stream - 1) together).
  EXPECT_NE(util::SplitSeed(1, 1), util::SplitSeed(2, 0));
}

TEST(SplitSeedTest, RngSplitIsOrderIndependent) {
  util::Rng fresh(42);
  util::Rng advanced(42);
  for (int i = 0; i < 100; ++i) advanced.NextUint64();
  // Fork() depends on draw position; Split() must not.
  for (uint64_t stream : {0ULL, 1ULL, 7ULL}) {
    EXPECT_EQ(fresh.Split(stream).NextUint64(),
              advanced.Split(stream).NextUint64());
    EXPECT_EQ(fresh.Split(stream).NextUint64(),
              util::Rng(util::SplitSeed(42, stream)).NextUint64());
  }
}

TEST(SplitSeedTest, StreamsAreStatisticallyDistinct) {
  // First draws of 1000 sibling streams should be essentially unique.
  std::vector<uint64_t> first_draws;
  for (uint64_t s = 0; s < 1000; ++s) {
    first_draws.push_back(util::Rng(util::SplitSeed(7, s)).NextUint64());
  }
  std::sort(first_draws.begin(), first_draws.end());
  EXPECT_EQ(std::unique(first_draws.begin(), first_draws.end()),
            first_draws.end());
}

// --------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int64_t> count{0};
  {
    exec::ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Drain();
    EXPECT_EQ(count.load(), 1000);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int64_t> count{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // No Drain(): destruction itself must wait for all 500.
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, SingleThreadPoolStillRunsTasks) {
  std::atomic<int64_t> count{0};
  exec::ThreadPool pool(1);
  for (int i = 0; i < 50; ++i) pool.Submit([&count] { count.fetch_add(1); });
  pool.Drain();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SubmitFromWorkerThreads) {
  // Nested submission: tasks submitting tasks while the workers are busy.
  std::atomic<int64_t> count{0};
  exec::ThreadPool pool(4);
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&pool, &count] {
      for (int j = 0; j < 10; ++j) {
        pool.Submit([&count] { count.fetch_add(1); });
      }
    });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 200);
}

// -------------------------------------------------------------- ParallelFor

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr int64_t kN = 20000;
  exec::ThreadPool pool(8);
  std::vector<std::atomic<int32_t>> hits(kN);
  for (auto& h : hits) h.store(0);
  // Tiny body => maximal contention on the index cursor.
  exec::ParallelFor(&pool, 0, kN,
                    [&hits](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SerialPathMatchesContract) {
  std::vector<int> hits(100, 0);
  exec::ParallelFor(nullptr, 0, 100, [&hits](int64_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
  exec::ParallelFor(nullptr, 5, 5, [](int64_t) { FAIL(); });  // empty range
}

TEST(ParallelForTest, PropagatesSmallestFailingIndex) {
  exec::ThreadPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    try {
      exec::ParallelFor(&pool, 0, 1000, [](int64_t i) {
        if (i % 250 == 37) {  // fails at 37, 287, 537, 787
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected ParallelFor to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 37");
    }
  }
  // The pool survives exceptions and stays usable.
  std::atomic<int64_t> count{0};
  exec::ParallelFor(&pool, 0, 64, [&count](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

// -------------------------------------------------------------- RunRegistry

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name + "." +
         std::to_string(::getpid());
}

TEST(RunRegistryTest, RoundTripsThroughTheJournalFile) {
  const std::string path = TempPath("crowdtopk_registry_roundtrip");
  std::remove(path.c_str());
  const exec::RunKey key{"exp \"quoted\"", 3};
  const std::vector<double> values = {88233.0, 57.0, 0.98123456789012345,
                                      1.0 / 3.0};
  {
    exec::RunRegistry registry(path);
    registry.Record(key, 7, 123456789, values);
    EXPECT_EQ(registry.size(), 1);
    std::vector<double> loaded;
    ASSERT_TRUE(registry.Lookup(key, 7, 123456789, &loaded));
    EXPECT_EQ(loaded, values);
  }
  // A fresh registry object must reload the entry from disk, bit-exactly.
  exec::RunRegistry reloaded(path);
  EXPECT_EQ(reloaded.size(), 1);
  std::vector<double> loaded;
  ASSERT_TRUE(reloaded.Lookup(key, 7, 123456789, &loaded));
  EXPECT_EQ(loaded, values);
  // Different run / seed / point: miss.
  EXPECT_FALSE(reloaded.Lookup(key, 8, 123456789, &loaded));
  EXPECT_FALSE(reloaded.Lookup(key, 7, 5, &loaded));
  EXPECT_FALSE(reloaded.Lookup({key.experiment, 4}, 7, 123456789, &loaded));
  std::remove(path.c_str());
}

TEST(RunRegistryTest, EngineSkipsRecordedRuns) {
  const std::string path = TempPath("crowdtopk_registry_resume");
  std::remove(path.c_str());
  const exec::RunKey key{"resume_test", 0};
  std::atomic<int64_t> executed{0};
  const auto task = [&executed](int64_t r, uint64_t) -> std::vector<double> {
    executed.fetch_add(1);
    return {static_cast<double>(r) * 1.5};
  };
  std::vector<std::vector<double>> first;
  {
    exec::RunRegistry registry(path);
    exec::RunEngine::Options options;
    options.jobs = 2;
    options.registry = &registry;
    exec::RunEngine engine(options);
    first = engine.Run(key, 10, 99, task);
    EXPECT_EQ(executed.load(), 10);
  }
  {
    // Same key + seed, fresh process simulated by a fresh registry: every
    // run is served from the journal, none re-executed.
    exec::RunRegistry registry(path);
    exec::RunEngine::Options options;
    options.jobs = 2;
    options.registry = &registry;
    exec::RunEngine engine(options);
    const auto second = engine.Run(key, 10, 99, task);
    EXPECT_EQ(executed.load(), 10) << "resume re-executed recorded runs";
    EXPECT_EQ(second, first);
    // A different master seed derives different run seeds: all re-run.
    engine.Run(key, 10, 100, task);
    EXPECT_EQ(executed.load(), 20);
  }
  std::remove(path.c_str());

  // A journal holding only the even runs: one dispatch mixes journal hits
  // with executed runs, and each writes only its own record slot.
  const std::string half_path = TempPath("crowdtopk_registry_half");
  std::remove(half_path.c_str());
  {
    exec::RunRegistry writer(half_path);
    for (int64_t r = 0; r < 10; r += 2) {
      writer.Record(key, r, util::SplitSeed(99, static_cast<uint64_t>(r)),
                    first[static_cast<size_t>(r)]);
    }
  }
  std::vector<std::atomic<int32_t>> ran(10);
  for (auto& count : ran) count.store(0);
  exec::RunRegistry registry(half_path);
  exec::RunEngine::Options options;
  options.jobs = 4;
  options.registry = &registry;
  exec::RunEngine engine(options);
  const auto third =
      engine.Run(key, 10, 99, [&](int64_t r, uint64_t run_seed) {
        ran[static_cast<size_t>(r)].fetch_add(1);
        return task(r, run_seed);
      });
  for (int64_t r = 0; r < 10; ++r) {
    EXPECT_EQ(ran[static_cast<size_t>(r)].load(), r % 2) << "run " << r;
  }
  EXPECT_EQ(third, first);
  EXPECT_EQ(registry.size(), 10);
  std::remove(half_path.c_str());
}

// ---------------------------------------------------------------- RunEngine

TEST(RunEngineTest, SeedsAreIndependentOfWorkerCount) {
  const auto task = [](int64_t r, uint64_t run_seed) -> std::vector<double> {
    EXPECT_EQ(run_seed, util::SplitSeed(2024, static_cast<uint64_t>(r)));
    // A nontrivial function of the run's own stream.
    util::Rng rng(run_seed);
    return {rng.Uniform(), static_cast<double>(rng.UniformInt(1000))};
  };
  exec::RunEngine::Options serial_options;
  serial_options.jobs = 1;
  exec::RunEngine serial(serial_options);
  exec::RunEngine::Options wide_options;
  wide_options.jobs = 8;
  exec::RunEngine wide(wide_options);
  const exec::RunKey key{"engine_test", 0};
  const auto a = serial.Run(key, 64, 2024, task);
  const auto b = wide.Run(key, 64, 2024, task);
  EXPECT_EQ(a, b);
  const auto ma = serial.RunMean(key, 64, 2024, task);
  const auto mb = wide.RunMean(key, 64, 2024, task);
  ASSERT_EQ(ma.size(), mb.size());
  for (size_t c = 0; c < ma.size(); ++c) {
    EXPECT_EQ(ma[c], mb[c]) << "column " << c << " not bit-identical";
  }
}

TEST(RunEngineTest, ReportsProgress) {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> saw_total{0};
  exec::RunEngine::Options options;
  options.jobs = 4;
  options.progress = [&](const exec::RunKey& key, int64_t done,
                         int64_t total) {
    EXPECT_EQ(key.experiment, "progress_test");
    EXPECT_GE(done, 1);
    EXPECT_LE(done, total);
    calls.fetch_add(1);
    if (done == total) saw_total.fetch_add(1);
  };
  exec::RunEngine engine(options);
  engine.Run({"progress_test", 0}, 25, 1,
             [](int64_t, uint64_t) -> std::vector<double> { return {1.0}; });
  EXPECT_EQ(calls.load(), 25);
  EXPECT_EQ(saw_total.load(), 1);
}

// --------------------------------------- the property the subsystem exists
// for: AverageRuns is bit-identical for 1 and 8 jobs, on SPR plus two
// confidence-aware baselines.

TEST(AverageRunsDeterminismTest, EightJobsBitIdenticalToSerial) {
  // Small instance so the three algorithms stay fast: 24 items, k = 4.
  const auto dataset = data::MakeUniformLadder(24, 1.0, 2.0);
  judgment::ComparisonOptions options = bench::DefaultComparisonOptions();
  options.budget = 200;  // keep per-pair spend small
  core::SprOptions spr_options;
  spr_options.comparison = options;
  std::vector<std::unique_ptr<core::TopKAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<core::Spr>(spr_options));
  algorithms.push_back(std::make_unique<baselines::TournamentTree>(options));
  algorithms.push_back(std::make_unique<baselines::HeapSortTopK>(options));
  for (const auto& algorithm : algorithms) {
    const bench::Averages serial = bench::AverageRunsWithJobs(
        *dataset, algorithm.get(), 4, 12, 20170514, /*jobs_override=*/1);
    const bench::Averages parallel = bench::AverageRunsWithJobs(
        *dataset, algorithm.get(), 4, 12, 20170514, /*jobs_override=*/8);
    // EXPECT_EQ, not EXPECT_NEAR: the contract is bit-identical.
    EXPECT_EQ(serial.tmc, parallel.tmc) << algorithm->name();
    EXPECT_EQ(serial.rounds, parallel.rounds) << algorithm->name();
    EXPECT_EQ(serial.ndcg, parallel.ndcg) << algorithm->name();
    EXPECT_EQ(serial.precision, parallel.precision) << algorithm->name();
    EXPECT_GT(serial.tmc, 0.0) << algorithm->name();
  }
}

}  // namespace
}  // namespace crowdtopk
