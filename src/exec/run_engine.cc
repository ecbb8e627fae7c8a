#include "exec/run_engine.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "exec/parallel_for.h"
#include "util/check.h"
#include "util/random.h"

namespace crowdtopk::exec {

namespace {

// Internal lookup key; '\x1f' (ASCII unit separator) cannot appear in an
// experiment name that came from a file name.
std::string EntryKey(const std::string& experiment, int64_t point,
                     int64_t run, uint64_t seed) {
  return experiment + '\x1f' + std::to_string(point) + '\x1f' +
         std::to_string(run) + '\x1f' + std::to_string(seed);
}

void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

// Extracts the string value of `"field":"..."`, undoing the quote and
// backslash escapes produced by AppendJsonEscaped.
bool ParseStringField(const std::string& line, const char* field,
                      std::string* out) {
  const std::string needle = std::string("\"") + field + "\":\"";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return false;
  out->clear();
  for (size_t i = start + needle.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out->push_back(line[++i]);
    } else if (line[i] == '"') {
      return true;
    } else {
      out->push_back(line[i]);
    }
  }
  return false;
}

bool ParseIntField(const std::string& line, const char* field,
                   long long* out) {
  const std::string needle = std::string("\"") + field + "\":";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return false;
  char* end = nullptr;
  const char* begin = line.c_str() + start + needle.size();
  *out = std::strtoll(begin, &end, 10);
  return end != begin;
}

bool ParseValues(const std::string& line, std::vector<double>* out) {
  const char needle[] = "\"values\":[";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return false;
  out->clear();
  const char* cursor = line.c_str() + start + sizeof(needle) - 1;
  if (*cursor == ']') return true;  // empty record
  for (;;) {
    char* end = nullptr;
    const double value = std::strtod(cursor, &end);
    if (end == cursor) return false;
    out->push_back(value);
    cursor = end;
    if (*cursor == ',') {
      ++cursor;
    } else {
      return *cursor == ']';
    }
  }
}

}  // namespace

RunRegistry::RunRegistry(std::string path) : path_(std::move(path)) {
  CROWDTOPK_CHECK(!path_.empty());
  std::FILE* file = std::fopen(path_.c_str(), "r");
  if (file == nullptr) return;  // fresh journal; created on first Record
  std::string line;
  char buffer[4096];
  int64_t skipped = 0;
  while (std::fgets(buffer, sizeof(buffer), file) != nullptr) {
    line.append(buffer);
    if (line.empty() || line.back() != '\n') continue;  // long line: keep
    while (!line.empty() && line.back() == '\n') line.pop_back();
    if (!line.empty()) {
      std::string experiment;
      long long point = 0, run = 0, seed = 0;
      std::vector<double> values;
      if (ParseStringField(line, "experiment", &experiment) &&
          ParseIntField(line, "point", &point) &&
          ParseIntField(line, "run", &run) &&
          ParseIntField(line, "seed", &seed) &&
          ParseValues(line, &values)) {
        entries_[EntryKey(experiment, point, run,
                          static_cast<uint64_t>(seed))] = std::move(values);
      } else {
        ++skipped;
      }
    }
    line.clear();
  }
  std::fclose(file);
  if (skipped > 0) {
    std::fprintf(stderr, "run-registry: skipped %lld unparsable lines in %s\n",
                 static_cast<long long>(skipped), path_.c_str());
  }
}

bool RunRegistry::Lookup(const RunKey& key, int64_t run, uint64_t seed,
                         std::vector<double>* values) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(EntryKey(key.experiment, key.point, run, seed));
  if (it == entries_.end()) return false;
  *values = it->second;
  return true;
}

void RunRegistry::Record(const RunKey& key, int64_t run, uint64_t seed,
                         const std::vector<double>& values) {
  std::string line = "{\"experiment\":\"";
  AppendJsonEscaped(key.experiment, &line);
  line += "\",\"point\":" + std::to_string(key.point) +
          ",\"run\":" + std::to_string(run) +
          ",\"seed\":" + std::to_string(static_cast<long long>(seed)) +
          ",\"values\":[";
  char number[32];
  for (size_t i = 0; i < values.size(); ++i) {
    // %.17g round-trips every double exactly, so resumed sweeps reproduce
    // the original aggregates bit-for-bit.
    std::snprintf(number, sizeof(number), "%.17g", values[i]);
    if (i > 0) line += ',';
    line += number;
  }
  line += "]}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  entries_[EntryKey(key.experiment, key.point, run, seed)] = values;
  std::FILE* file = std::fopen(path_.c_str(), "a");
  if (file == nullptr) {
    std::fprintf(stderr, "run-registry: cannot append to %s\n",
                 path_.c_str());
    return;
  }
  std::fwrite(line.data(), 1, line.size(), file);
  std::fclose(file);
}

int64_t RunRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(entries_.size());
}

RunEngine::RunEngine(Options options) : options_(std::move(options)) {}

RunEngine::~RunEngine() = default;

int64_t RunEngine::default_jobs() const {
  return options_.jobs <= 0 ? ThreadPool::HardwareThreads() : options_.jobs;
}

ThreadPool* RunEngine::PoolFor(int64_t jobs) {
  if (jobs <= 1) return nullptr;
  if (pool_ == nullptr || pool_->num_threads() < jobs) {
    pool_.reset();  // join the narrower pool before replacing it
    pool_ = std::make_unique<ThreadPool>(jobs);
  }
  return pool_.get();
}

std::vector<std::vector<double>> RunEngine::Run(
    const RunKey& key, int64_t runs, uint64_t master_seed,
    const std::function<std::vector<double>(int64_t, uint64_t)>& task,
    int64_t jobs_override) {
  CROWDTOPK_CHECK_GE(runs, 0);
  const int64_t jobs = jobs_override > 0 ? jobs_override : default_jobs();
  // ParallelFor runs body(r) exactly once per r and returns after all of
  // them, so each run writes only its own slot and needs no lock.
  std::vector<std::vector<double>> records(static_cast<size_t>(runs));
  std::atomic<int64_t> done{0};
  RunRegistry* registry = options_.registry;
  const auto& progress = options_.progress;
  const auto body = [&](int64_t r) {
    // The run's whole stream is a pure function of (master_seed, r):
    // independent of dispatch order, thread, and worker count.
    const uint64_t run_seed =
        util::SplitSeed(master_seed, static_cast<uint64_t>(r));
    std::vector<double>& values = records[static_cast<size_t>(r)];
    if (registry == nullptr || !registry->Lookup(key, r, run_seed, &values)) {
      values = task(r, run_seed);
      if (registry != nullptr) registry->Record(key, r, run_seed, values);
    }
    if (progress) {
      progress(key, done.fetch_add(1, std::memory_order_relaxed) + 1, runs);
    }
  };
  ParallelFor(PoolFor(jobs), 0, runs, body, jobs);
  return records;
}

std::vector<double> RunEngine::RunMean(
    const RunKey& key, int64_t runs, uint64_t master_seed,
    const std::function<std::vector<double>(int64_t, uint64_t)>& task,
    int64_t jobs_override) {
  const std::vector<std::vector<double>> records =
      Run(key, runs, master_seed, task, jobs_override);
  if (records.empty()) return {};
  // Canonical-order reduction: the exact additions of the serial loop.
  std::vector<double> sums(records[0].size(), 0.0);
  for (const std::vector<double>& record : records) {
    CROWDTOPK_CHECK_EQ(record.size(), sums.size());
    for (size_t c = 0; c < sums.size(); ++c) sums[c] += record[c];
  }
  for (double& s : sums) s /= static_cast<double>(runs);
  return sums;
}

}  // namespace crowdtopk::exec
