// The benchmark's workloads and the report they fill.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crowd/types.h"
#include "probes.h"

namespace crowdtopk::perfbench {

// Cross-workload constants (README.md, "Workloads").
inline constexpr int64_t kCrowdWorkers = 3000;  // W
inline constexpr int64_t kEta = 30;             // per-pair batch cap
inline constexpr int64_t kAttempts = 8;         // dispatch attempts
inline constexpr int64_t kTopK = 10;
inline constexpr double kAlpha = 0.02;
// The datasets are fixed fixtures, as the paper's real datasets are: each is
// generated under SplitSeed(kDatasetSeed, Fnv1a64(name)), the router's own
// per-name rule. --seed varies everything else: the judgment streams, the
// worker latencies and the arrival trace.
inline constexpr uint64_t kDatasetSeed = 20170514;
// Set-up samples taken before each measured repetition (untraced runs
// only); setup_s is the median of all of them. Spreading the samples over
// the run keeps one slow moment of the machine from setting the figure.
inline constexpr int kSetupSamplesPerRepetition = 9;
// Hard stop for the measured phase, well inside the 180 s a run may take.
inline constexpr double kMaxMeasureSeconds = 100.0;

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  // Writable directory for persistence and scratch files; the caller
  // creates and removes it.
  std::string scratch;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  // A failed check: the run is not correct.
  void Fail(const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit);
  // A human-readable line printed before the JSON result.
  void Note(const std::string& line);

  // One operation attempted; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }

  // Notes, then the single-line JSON result (last line of stdout).
  void Print() const;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// The end-to-end metrics a workload measured (README.md); peak RSS and the
// success rate are added from the process and the report.
struct EndToEnd {
  double setup_s = 0.0;
  double queries_per_s = 0.0;
  double microtasks_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double tmc_per_query = 0.0;
  double rounds_per_query = 0.0;
  double precision_at_k = 0.0;
};
void AddEndToEndMetrics(const EndToEnd& e2e, Report* report);

// Adds every per-layer metric in README.md's table, in table order, taking
// values from `values` and 0 for a layer the workload bypasses.
void AddLayerMetrics(const std::map<std::string, double>& values,
                     Report* report);

// Adds the data.* and core.* metrics of one repetition's driver samples,
// and checks that the decorated oracle saw exactly the purchased microtasks.
void AddDriverMetrics(const std::vector<DriverSample>& samples,
                      int64_t purchased, std::map<std::string, double>* layer,
                      Report* report);

// True when `items` holds kTopK distinct ids in [0, num_items).
bool ValidTopK(const std::vector<crowd::ItemId>& items, int64_t num_items);

// Both in-process replays: "replay_cold" and "replay_shared_durable".
void RunReplayWorkload(const RunOptions& options, Report* report);
// "net_router_small": loopback server + router engine, closed-loop clients.
void RunNetWorkload(const RunOptions& options, Report* report);

}  // namespace crowdtopk::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
