#include "util/env.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace crowdtopk::util {

namespace {

std::atomic<int64_t> env_warnings{0};

// Once-per-key registry behind WarnBadValueOnce. Hoisted out of the
// function (and leaked, never destroyed) so tests can reset it between
// cases: without the reset, whether a repeated-parse test observes a
// warning depends on which earlier test touched the same variable first.
std::mutex& WarnedMutex() {
  static std::mutex mutex;
  return mutex;
}

std::set<std::string>& WarnedKeys() {
  static std::set<std::string>* warned = new std::set<std::string>();
  return *warned;
}

// Numeric env values must parse in full: "4x" silently becoming 4 hides
// typos in knobs like CROWDTOPK_JOBS. Rejected values fall back to the
// default and warn on stderr once per variable name per process, so a
// bench looping over configurations does not flood its report.
void WarnBadValueOnce(const std::string& name, const char* value,
                      const char* kind) {
  std::lock_guard<std::mutex> lock(WarnedMutex());
  if (!WarnedKeys().insert(name).second) return;
  env_warnings.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "crowdtopk: ignoring %s='%s' (not a valid %s); "
               "using the built-in default\n",
               name.c_str(), value, kind);
}

// Returns true if everything from `end` to the end of the string is
// whitespace, i.e. the numeric parse consumed the whole value.
bool OnlyTrailingWhitespace(const char* end) {
  for (; *end != '\0'; ++end) {
    if (!std::isspace(static_cast<unsigned char>(*end))) return false;
  }
  return true;
}

}  // namespace

int64_t GetEnvInt64(const std::string& name, int64_t fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  // An out-of-range value (strtoll clamps and sets ERANGE) is as much a
  // typo as trailing garbage: reject it instead of silently saturating.
  if (end == value || !OnlyTrailingWhitespace(end) || errno == ERANGE) {
    WarnBadValueOnce(name, value, "integer");
    return fallback;
  }
  return static_cast<int64_t>(parsed);
}

double GetEnvDouble(const std::string& name, double fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (end == value || !OnlyTrailingWhitespace(end) || errno == ERANGE) {
    WarnBadValueOnce(name, value, "number");
    return fallback;
  }
  return parsed;
}

std::string GetEnvString(const std::string& name,
                         const std::string& fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

std::vector<std::string> SplitCsv(const std::string& list) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : list) {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else if (c != ' ') {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

bool GetEnvBool(const std::string& name, bool fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return fallback;
  std::string lowered = value;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lowered != "0" && lowered != "false" && lowered != "off" &&
         lowered != "no";
}

int64_t BenchRuns(int64_t fallback) {
  return GetEnvInt64("CROWDTOPK_RUNS", fallback);
}

uint64_t BenchSeed(uint64_t fallback) {
  return static_cast<uint64_t>(
      GetEnvInt64("CROWDTOPK_SEED", static_cast<int64_t>(fallback)));
}

int64_t BenchJobs() {
  const int64_t jobs = GetEnvInt64("CROWDTOPK_JOBS", 0);
  return jobs < 0 ? 0 : jobs;
}

std::string RegistryPath() { return GetEnvString("CROWDTOPK_REGISTRY", ""); }

bool ProgressEnabled() { return GetEnvBool("CROWDTOPK_PROGRESS", false); }

bool TraceEnabled() { return GetEnvBool("CROWDTOPK_TRACE", false); }

std::string TraceDir() { return GetEnvString("CROWDTOPK_TRACE_DIR", "."); }

bool TraceAllRuns() {
  return GetEnvBool("CROWDTOPK_TRACE_ALL_RUNS", false);
}

bool CacheEnabled() { return GetEnvBool("CROWDTOPK_CACHE", false); }

int64_t CacheCapacity() {
  return GetEnvInt64("CROWDTOPK_CACHE_CAPACITY", -1);
}

bool CacheTransitivity() {
  return GetEnvBool("CROWDTOPK_CACHE_TRANSITIVITY", false);
}

std::string PersistDir() { return GetEnvString("CROWDTOPK_PERSIST_DIR", ""); }

int64_t SnapshotEvery() { return GetEnvInt64("CROWDTOPK_SNAPSHOT_EVERY", 8); }

bool WalFsync() { return GetEnvBool("CROWDTOPK_WAL_FSYNC", true); }

int64_t WalSegmentBytes() {
  return GetEnvInt64("CROWDTOPK_WAL_SEGMENT_BYTES", int64_t{1} << 20);
}

int64_t PersistKillBarrier() {
  return GetEnvInt64("CROWDTOPK_PERSIST_KILL_BARRIER", -1);
}

int64_t NetPort() { return GetEnvInt64("CROWDTOPK_NET_PORT", 0); }

int64_t NetMaxConns() { return GetEnvInt64("CROWDTOPK_NET_MAX_CONNS", 64); }

int64_t NetIdleTimeoutMs() {
  return GetEnvInt64("CROWDTOPK_NET_IDLE_TIMEOUT_MS", 60000);
}

int64_t NetDrainTimeoutMs() {
  return GetEnvInt64("CROWDTOPK_NET_DRAIN_TIMEOUT_MS", 30000);
}

int64_t ShardCount() {
  const int64_t shards = GetEnvInt64("CROWDTOPK_SHARDS", 1);
  return shards < 1 ? 1 : shards;
}

bool ShardCacheSync() {
  return GetEnvBool("CROWDTOPK_SHARD_CACHE_SYNC", false);
}

int64_t ShardRedispatch() {
  return GetEnvInt64("CROWDTOPK_SHARD_REDISPATCH", 2);
}

int64_t ShardFail() { return GetEnvInt64("CROWDTOPK_SHARD_FAIL", -1); }

int64_t ShardFailAfterBatches() {
  return GetEnvInt64("CROWDTOPK_SHARD_FAIL_AFTER", 1);
}

namespace internal {
int64_t EnvWarningCountForTest() {
  return env_warnings.load(std::memory_order_relaxed);
}

void ResetEnvWarningsForTest() {
  std::lock_guard<std::mutex> lock(WarnedMutex());
  WarnedKeys().clear();
}
}  // namespace internal

std::string ProgramName() {
  std::FILE* comm = std::fopen("/proc/self/comm", "r");
  if (comm == nullptr) return "bench";
  char buffer[64] = {0};
  const size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, comm);
  std::fclose(comm);
  std::string name(buffer, read);
  while (!name.empty() && (name.back() == '\n' || name.back() == '\0')) {
    name.pop_back();
  }
  return name.empty() ? "bench" : name;
}

}  // namespace crowdtopk::util
