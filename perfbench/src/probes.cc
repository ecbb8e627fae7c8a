#include "probes.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <utility>

namespace crowdtopk::perfbench {
namespace {

// Oracle traffic of the calling thread (see the header comment).
thread_local int64_t tl_judgments = 0;
thread_local int64_t tl_oracle_ns = 0;

std::vector<double> TrueScores(const data::Dataset& dataset) {
  std::vector<double> scores(static_cast<size_t>(dataset.num_items()));
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = dataset.TrueScore(static_cast<crowd::ItemId>(i));
  }
  return scores;
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.user_s = Seconds(ru.ru_utime);
  usage.sys_s = Seconds(ru.ru_stime);
  usage.voluntary_switches = ru.ru_nvcsw;
  usage.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return usage;
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ----- TimedDataset ----------------------------------------------------------

TimedDataset::TimedDataset(std::unique_ptr<data::Dataset> inner)
    : data::Dataset(inner->name(), TrueScores(*inner)),
      inner_(std::move(inner)) {}

double TimedDataset::PreferenceJudgment(crowd::ItemId i, crowd::ItemId j,
                                        util::Rng* rng) const {
  const int64_t start = WallNs();
  const double value = inner_->PreferenceJudgment(i, j, rng);
  tl_oracle_ns += WallNs() - start;
  ++tl_judgments;
  return value;
}

double TimedDataset::BinaryJudgment(crowd::ItemId i, crowd::ItemId j,
                                    util::Rng* rng) const {
  const int64_t start = WallNs();
  const double value = inner_->BinaryJudgment(i, j, rng);
  tl_oracle_ns += WallNs() - start;
  ++tl_judgments;
  return value;
}

double TimedDataset::GradedJudgment(crowd::ItemId i, util::Rng* rng) const {
  const int64_t start = WallNs();
  const double value = inner_->GradedJudgment(i, rng);
  tl_oracle_ns += WallNs() - start;
  ++tl_judgments;
  return value;
}

// ----- TimedAlgorithm --------------------------------------------------------

void DriverLog::Add(const DriverSample& sample) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(sample);
}

std::vector<DriverSample> DriverLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(samples_, {});
}

TimedAlgorithm::TimedAlgorithm(std::unique_ptr<core::TopKAlgorithm> inner,
                               DriverLog* log, bool traced)
    : inner_(std::move(inner)), log_(log), traced_(traced) {}

core::TopKResult TimedAlgorithm::Run(crowd::CrowdPlatform* platform,
                                     int64_t k) {
  if (!traced_) {
    const int64_t start = WallNs();
    core::TopKResult result = inner_->Run(platform, k);
    DriverSample sample;
    sample.wall_ns = WallNs() - start;
    log_->Add(sample);
    return result;
  }
  const int64_t judgments = tl_judgments;
  const int64_t oracle_ns = tl_oracle_ns;
  const int64_t cpu = ThreadCpuNs();
  const int64_t start = WallNs();
  core::TopKResult result = inner_->Run(platform, k);
  DriverSample sample;
  sample.wall_ns = WallNs() - start;
  sample.cpu_ns = ThreadCpuNs() - cpu;
  sample.judgments = tl_judgments - judgments;
  sample.oracle_ns = tl_oracle_ns - oracle_ns;
  log_->Add(sample);
  return result;
}

// ----- TimedEngine -----------------------------------------------------------

util::StatusOr<int64_t> TimedEngine::Submit(int64_t conn_id,
                                            const net::SubmitQuery& spec) {
  const int64_t start = WallNs();
  util::StatusOr<int64_t> id = inner_->Submit(conn_id, spec);
  submit_ns_ += WallNs() - start;
  if (id.ok()) {
    ++submits_;
    submitted_at_[*id] = start;
  }
  return id;
}

std::vector<net::Completion> TimedEngine::TakeCompletions() {
  std::vector<net::Completion> completions = inner_->TakeCompletions();
  const int64_t now = WallNs();
  for (const net::Completion& c : completions) {
    const auto it = submitted_at_.find(c.query_id);
    if (it == submitted_at_.end()) continue;
    residence_ns_[c.query_id] = now - it->second;
    submitted_at_.erase(it);
  }
  return completions;
}

}  // namespace crowdtopk::perfbench
