// Timing decorators around the library's public seams, plus the small
// statistics helpers the workloads share.
//
// The benchmark never edits the program under test. It measures each layer
// by wrapping the objects the public API accepts:
//
//   TimedDataset    a data::Dataset that forwards every judgment to the real
//                   oracle and counts/times it (data layer);
//   TimedAlgorithm  a core::TopKAlgorithm that forwards Run and records the
//                   driver thread's wall and CPU time (core layer);
//   TimedEngine     a net::Engine that forwards to the router engine and
//                   records submit cost and engine residence (shard layer).
//
// Judgment counts and oracle time accumulate in thread-local counters; the
// algorithm decorator reads them before and after Run on the same driver
// thread, so a judgment drawn outside any Run is missed on purpose and the
// reconciliation check (judgments == purchased microtasks) fails loudly.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/topk_algorithm.h"
#include "data/dataset.h"
#include "net/engine.h"

namespace crowdtopk::perfbench {

// ----- clocks --------------------------------------------------------------

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
int64_t ThreadCpuNs();

// Process resource usage (getrusage RUSAGE_SELF).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t voluntary_switches = 0;
  double max_rss_mb = 0.0;
};
Usage ProcessUsage();

// ----- statistics ----------------------------------------------------------

double Median(std::vector<double> values);
// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

// ----- data layer ------------------------------------------------------------

class TimedDataset : public data::Dataset {
 public:
  explicit TimedDataset(std::unique_ptr<data::Dataset> inner);

  double PreferenceJudgment(crowd::ItemId i, crowd::ItemId j,
                            util::Rng* rng) const override;
  double BinaryJudgment(crowd::ItemId i, crowd::ItemId j,
                        util::Rng* rng) const override;
  double GradedJudgment(crowd::ItemId i, util::Rng* rng) const override;

 private:
  std::unique_ptr<data::Dataset> inner_;
};

// ----- core layer ------------------------------------------------------------

// One TopKAlgorithm::Run on one driver thread.
struct DriverSample {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;       // thread CPU inside Run (traced only)
  int64_t judgments = 0;    // oracle calls inside Run (traced only)
  int64_t oracle_ns = 0;    // wall time inside those calls (traced only)
};

// Collects DriverSamples from every driver thread.
class DriverLog {
 public:
  void Add(const DriverSample& sample);
  std::vector<DriverSample> Take();

 private:
  std::mutex mu_;
  std::vector<DriverSample> samples_;
};

class TimedAlgorithm : public core::TopKAlgorithm {
 public:
  // `traced` adds the thread CPU clock and the oracle counters; untraced, only
  // the driver's wall time is taken (the replays' latency metric).
  TimedAlgorithm(std::unique_ptr<core::TopKAlgorithm> inner, DriverLog* log,
                 bool traced);

  std::string name() const override { return inner_->name(); }
  core::TopKResult Run(crowd::CrowdPlatform* platform, int64_t k) override;
  bool concurrent_runs_safe() const override {
    return inner_->concurrent_runs_safe();
  }

 private:
  std::unique_ptr<core::TopKAlgorithm> inner_;
  DriverLog* log_;
  bool traced_;
};

// ----- shard layer (net::Engine seam) ---------------------------------------

// All calls arrive on the server's network thread; read the fields only
// after the server has stopped.
class TimedEngine : public net::Engine {
 public:
  explicit TimedEngine(std::unique_ptr<net::Engine> inner)
      : inner_(std::move(inner)) {}

  util::StatusOr<int64_t> Submit(int64_t conn_id,
                                 const net::SubmitQuery& spec) override;
  net::QueryState State(int64_t query_id) const override {
    return inner_->State(query_id);
  }
  bool Cancel(int64_t query_id, int64_t* submitter_conn) override {
    return inner_->Cancel(query_id, submitter_conn);
  }
  void BeginDrain() override { inner_->BeginDrain(); }
  void AbortQueued() override { inner_->AbortQueued(); }
  std::vector<net::Completion> TakeCompletions() override;
  bool Drained() const override { return inner_->Drained(); }
  int64_t queued() const override { return inner_->queued(); }
  int64_t batches() const override { return inner_->batches(); }
  int64_t upstream_retries() const override {
    return inner_->upstream_retries();
  }
  int64_t upstream_redials() const override {
    return inner_->upstream_redials();
  }

  int64_t submits() const { return submits_; }
  int64_t submit_ns() const { return submit_ns_; }
  // Query id -> ns from entering Submit to leaving TakeCompletions.
  const std::unordered_map<int64_t, int64_t>& residence_ns() const {
    return residence_ns_;
  }

 private:
  std::unique_ptr<net::Engine> inner_;
  int64_t submits_ = 0;
  int64_t submit_ns_ = 0;
  std::unordered_map<int64_t, int64_t> submitted_at_;
  std::unordered_map<int64_t, int64_t> residence_ns_;
};

}  // namespace crowdtopk::perfbench

#endif  // PERFBENCH_PROBES_H_
