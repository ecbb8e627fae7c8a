// Deterministic fan-out of repeated simulation runs.
//
// The paper's evaluation averages ~100 repetitions per experiment point;
// repetitions are embarrassingly parallel by construction (each run owns a
// fresh CrowdPlatform, oracle view, and RNG stream). RunEngine is the piece
// that exploits that: it dispatches run indices with ParallelFor, hands
// each run an RNG seed derived *by index* with util::SplitSeed (never by
// drawing from a shared seeder, so seeds are independent of execution
// order), and has run r write its record into slot r of a pre-sized
// vector, so the records come back in canonical run order — which makes
// every downstream aggregate bit-identical to the single-threaded loop it
// replaced, for any worker count.
//
// An optional RunRegistry provides resume: every completed run is appended
// to a JSONL journal keyed by (experiment, point, run, seed), and runs
// already present in the journal are not re-executed — an interrupted
// multi-hour sweep restarts where it stopped.
//
// A task must confine its side effects to its own run: no writes to shared
// state, randomness only from the provided seed. Algorithms whose Run()
// method mutates the algorithm object (core::TopKAlgorithm::
// concurrent_runs_safe() == false) are dispatched with jobs = 1.

#ifndef CROWDTOPK_EXEC_RUN_ENGINE_H_
#define CROWDTOPK_EXEC_RUN_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/thread_pool.h"

namespace crowdtopk::exec {

// Identity of one experiment point, used for resume bookkeeping and
// progress display. `experiment` is typically the bench binary's name and
// `point` a monotone per-binary counter, so re-running the same binary
// reproduces the same keys.
struct RunKey {
  std::string experiment;
  int64_t point = 0;
};

// Append-only JSONL journal of completed runs. One line per run:
//   {"experiment":"table7_tmc","point":2,"run":7,"seed":123,"values":[...]}
// Values are written with enough digits to round-trip doubles exactly, so a
// resumed sweep reproduces the original aggregates bit-for-bit.
class RunRegistry {
 public:
  // Opens (and reads) the journal at `path`; the file is created on the
  // first Record. Unparsable lines are skipped with a warning.
  explicit RunRegistry(std::string path);

  RunRegistry(const RunRegistry&) = delete;
  RunRegistry& operator=(const RunRegistry&) = delete;

  // Fetches the recorded values of (key, run, seed) if present.
  bool Lookup(const RunKey& key, int64_t run, uint64_t seed,
              std::vector<double>* values) const;

  // Appends one completed run and flushes. Thread-safe.
  void Record(const RunKey& key, int64_t run, uint64_t seed,
              const std::vector<double>& values);

  // Number of loaded + recorded entries.
  int64_t size() const;

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::vector<double>> entries_;
};

class RunEngine {
 public:
  struct Options {
    // Default worker count: 0 = hardware concurrency, 1 = fully inline
    // serial execution (no threads are ever spawned).
    int64_t jobs = 0;
    // Optional resume journal; not owned, may be nullptr.
    RunRegistry* registry = nullptr;
    // Optional progress observer, called after every completed run with
    // (key, runs done, runs total). May be invoked from worker threads.
    std::function<void(const RunKey&, int64_t, int64_t)> progress;
  };

  explicit RunEngine(Options options);
  ~RunEngine();

  // Executes task(run, SplitSeed(master_seed, run)) for run in [0, runs)
  // and returns the records in run order. `jobs_override` > 0 forces a
  // specific worker count for this point (1 = serial), otherwise the
  // engine default applies. Rethrows the smallest failing run's exception.
  std::vector<std::vector<double>> Run(
      const RunKey& key, int64_t runs, uint64_t master_seed,
      const std::function<std::vector<double>(int64_t, uint64_t)>& task,
      int64_t jobs_override = 0);

  // As Run, but reduces to canonical-order column means (the exact
  // floating-point sums a serial loop would produce).
  std::vector<double> RunMean(
      const RunKey& key, int64_t runs, uint64_t master_seed,
      const std::function<std::vector<double>(int64_t, uint64_t)>& task,
      int64_t jobs_override = 0);

  // The resolved default worker count (options.jobs with 0 expanded to
  // hardware concurrency).
  int64_t default_jobs() const;

 private:
  // The pool backing a dispatch with `jobs` workers; nullptr for jobs <= 1.
  // Grows (rebuilds) the pool if a wider dispatch is requested.
  ThreadPool* PoolFor(int64_t jobs);

  Options options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace crowdtopk::exec

#endif  // CROWDTOPK_EXEC_RUN_ENGINE_H_
