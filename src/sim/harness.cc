#include "sim/harness.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "baselines/registry.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "serve/arrival.h"
#include "serve/query_service.h"
#include "serve/report.h"
#include "sim/environment.h"
#include "util/file_io.h"

namespace crowdtopk::sim {

namespace {

// How one replay within the episode deviates from the episode's own
// configuration (the control runs of the invariant families).
struct RunConfig {
  int64_t jobs = 1;
  uint64_t seed_bump = 0;  // "seed-drift" mutation hook
  enum class CacheMode { kEpisode, kOff, kZeroCapacity, kOneSlot };
  CacheMode cache_mode = CacheMode::kEpisode;
  std::string persist_dir;  // empty = durability off
  bool resume = false;
  int64_t halt_after_barrier = -1;
  const std::vector<cache::ExportedEntry>* warm = nullptr;
};

// One full-stack replay of the episode's trace under `config`.
RunArtifacts RunReplay(const Episode& e, const RunConfig& config) {
  const SimEnvironment env(e.seed);
  const std::unique_ptr<data::Dataset> dataset =
      MakeEpisodeDataset(e, env.StreamSeed(Stream::kFaults));

  judgment::ComparisonOptions comparison;
  comparison.alpha = e.alpha;
  comparison.budget = 500;  // bounds per-pair cost; ties are fine

  std::vector<std::unique_ptr<core::TopKAlgorithm>> algorithms;
  for (int64_t a = 0; a < e.algorithms; ++a) {
    algorithms.push_back(
        baselines::MakeAlgorithm(kAlgorithmRotation[a % 4], comparison));
  }

  std::vector<serve::QueryRequest> requests(e.queries);
  for (int64_t q = 0; q < e.queries; ++q) {
    requests[q].algorithm = algorithms[q % algorithms.size()].get();
    requests[q].dataset = dataset.get();
    requests[q].k = e.k;
  }
  const std::vector<double> arrivals = serve::PoissonArrivals(
      e.queries, e.arrival_rate, env.StreamSeed(Stream::kArrivals));

  serve::ServeOptions options;
  options.schedule.crowd_workers = e.crowd_workers;
  options.schedule.per_pair_batch = e.per_pair_batch;
  options.schedule.deadline_seconds = e.deadline_seconds;
  options.schedule.abandon_probability = e.abandon_probability;
  options.schedule.no_show_probability =
      fault::NoShowProbability(e.FaultPlanFor());
  options.schedule.max_attempts = e.max_attempts;
  options.max_inflight = e.max_inflight;
  options.max_queue = e.max_queue;
  options.jobs = config.jobs;
  options.seed = env.StreamSeed(Stream::kReplay) + config.seed_bump;
  switch (config.cache_mode) {
    case RunConfig::CacheMode::kEpisode:
      options.cache.enabled = e.cache_enabled;
      options.cache.capacity = e.cache_capacity;
      options.cache.transitivity = e.transitivity;
      break;
    case RunConfig::CacheMode::kOff:
      options.cache.enabled = false;
      break;
    case RunConfig::CacheMode::kZeroCapacity:
      options.cache.enabled = true;
      options.cache.capacity = 0;
      options.cache.transitivity = e.transitivity;
      break;
    case RunConfig::CacheMode::kOneSlot:
      options.cache.enabled = true;
      options.cache.capacity = 1;
      options.cache.transitivity = e.transitivity;
      break;
  }
  if (!config.persist_dir.empty()) {
    options.persist.dir = config.persist_dir;
    options.persist.snapshot_every = e.snapshot_every;
    options.persist.wal_segment_bytes = e.wal_segment_bytes;
    options.persist.wal_fsync = false;  // chaos is fail-stop, not power loss
    options.persist.resume = config.resume;
    options.persist.halt_after_barrier = config.halt_after_barrier;
  }

  serve::QueryService service(options);
  if (config.warm != nullptr) service.RestoreCache(*config.warm);
  RunArtifacts artifacts;
  artifacts.outcomes = service.Replay(requests, arrivals);
  const serve::ServeReport report = serve::BuildServeReport(
      artifacts.outcomes, service.assignment_stats(),
      service.makespan_seconds(), service.total_rounds());
  artifacts.report_jsonl =
      serve::RenderServeReportJsonl(report, artifacts.outcomes);
  artifacts.query_table = serve::RenderQueryTable(artifacts.outcomes);
  artifacts.cache_export = service.ExportCache();
  artifacts.cache_stats = service.cache_stats();
  artifacts.persist = service.persist_counters();
  artifacts.persist_status = service.persist_status();
  artifacts.replayed_microtasks = service.replayed_microtasks();
  return artifacts;
}

// Empties (or creates) a scratch subdirectory for one persisted run.
std::string FreshDir(const std::string& path) {
  std::vector<std::string> files;
  if (util::ListDirectoryFiles(path, &files).ok()) {
    for (const std::string& f : files) {
      util::RemoveFileIfExists(path + "/" + f);
    }
  }
  util::EnsureDirectory(path);
  return path;
}

// Cuts `bytes` off the end of the newest WAL segment — the crash image's
// torn tail.
void TearWalTail(const std::string& dir, int64_t bytes,
                 std::vector<Violation>* out) {
  const int64_t segment = persist::MaxWalSegment(dir);
  if (segment < 0) return;  // nothing to tear (halt before any barrier)
  const std::string path = dir + "/" + persist::WalSegmentName(segment);
  std::string contents;
  if (!util::ReadFileToString(path, &contents).ok()) {
    out->push_back({"resume-identity", "torn-tail setup: unreadable " + path});
    return;
  }
  const size_t cut =
      std::min(contents.size(), static_cast<size_t>(bytes));
  contents.resize(contents.size() - cut);
  if (!util::WriteFileAtomic(path, contents).ok()) {
    out->push_back({"resume-identity", "torn-tail setup: rewrite failed"});
  }
}

}  // namespace

Episode NormalizeEpisode(const Episode& episode) {
  Episode e = episode;
  e.items = std::clamp<int64_t>(e.items, 4, 64);
  e.k = std::clamp<int64_t>(e.k, 1, e.items - 1);
  e.queries = std::clamp<int64_t>(e.queries, 1, 32);
  e.algorithms = std::clamp<int64_t>(e.algorithms, 1, 4);
  e.gap = std::clamp(e.gap, 0.01, 100.0);
  e.noise = std::clamp(e.noise, 0.0, 100.0);
  e.alpha = std::clamp(e.alpha, 1e-4, 0.4);
  e.arrival_rate = std::clamp(e.arrival_rate, 1e-4, 10.0);
  e.crowd_workers = std::clamp<int64_t>(e.crowd_workers, 1, 256);
  e.per_pair_batch = std::clamp<int64_t>(e.per_pair_batch, 1, 64);
  e.deadline_seconds = std::clamp(e.deadline_seconds, 1.0, 3600.0);
  e.abandon_probability = std::clamp(e.abandon_probability, 0.0, 0.5);
  e.max_attempts = std::clamp<int64_t>(e.max_attempts, 1, 16);
  e.max_inflight = std::clamp<int64_t>(e.max_inflight, 1, 64);
  if (e.max_queue < -1) e.max_queue = -1;
  auto clamp_fraction = [](double* f) { *f = std::clamp(*f, 0.0, 0.9); };
  clamp_fraction(&e.spammer_fraction);
  clamp_fraction(&e.adversary_fraction);
  clamp_fraction(&e.lazy_fraction);
  clamp_fraction(&e.duplicate_fraction);
  clamp_fraction(&e.no_show_fraction);
  if (e.cache_capacity < -1) e.cache_capacity = -1;
  e.snapshot_every = std::clamp<int64_t>(e.snapshot_every, 1, 64);
  e.wal_segment_bytes = std::clamp<int64_t>(e.wal_segment_bytes, 256, 1 << 20);
  if (e.halt_after_barrier < -1) e.halt_after_barrier = -1;
  e.torn_tail_bytes = std::clamp<int64_t>(e.torn_tail_bytes, 0, 1 << 16);
  e.jobs_a = std::clamp<int64_t>(e.jobs_a, 1, 16);
  e.jobs_b = std::clamp<int64_t>(e.jobs_b, 1, 16);
  e.wire_trials = std::clamp<int64_t>(e.wire_trials, 0, 16);
  e.shards = std::clamp<int64_t>(e.shards, 0, 8);
  if (e.shards < 2) e.shard_kill = false;
  return e;
}

std::vector<Violation> RunEpisode(const Episode& episode,
                                  const std::string& scratch_dir) {
  const Episode e = NormalizeEpisode(episode);
  std::vector<Violation> violations;
  util::EnsureDirectory(scratch_dir);

  // --- jobs bit-identity: the core determinism contract ------------------
  RunConfig base;
  base.jobs = e.jobs_a;
  const RunArtifacts cold = RunReplay(e, base);

  RunConfig wide = base;
  wide.jobs = e.jobs_b;
  if (e.mutation == "seed-drift") wide.seed_bump = 1;
  const RunArtifacts cold_wide = RunReplay(e, wide);
  CheckBitIdentity("jobs-bit-identity",
                   "jobs=" + std::to_string(e.jobs_a) + " vs jobs=" +
                       std::to_string(e.jobs_b),
                   cold, cold_wide, &violations);

  CheckCacheExport(e, cold, &violations);

  // --- cache ablation: capacity 0 must equal no cache at all -------------
  if (e.cache_enabled || e.mutation == "cache-leak") {
    RunConfig off = base;
    off.cache_mode = RunConfig::CacheMode::kOff;
    RunConfig zero = base;
    zero.cache_mode = e.mutation == "cache-leak"
                          ? RunConfig::CacheMode::kOneSlot
                          : RunConfig::CacheMode::kZeroCapacity;
    CheckTableIdentity("cache-capacity0-identity", "off vs capacity=0",
                       RunReplay(e, off), RunReplay(e, zero), &violations);
  }

  // --- durability chaos --------------------------------------------------
  if (e.persist_enabled) {
    // A complete persisted generation: durability must be transparent.
    const std::string complete_dir = FreshDir(scratch_dir + "/complete");
    RunConfig persisted = base;
    persisted.persist_dir = complete_dir;
    const RunArtifacts full = RunReplay(e, persisted);
    CheckBitIdentity("persist-transparency", "cold vs persisted", cold, full,
                     &violations);
    if (!full.persist_status.ok()) {
      violations.push_back({"persist-transparency",
                            "persist status: " +
                                full.persist_status.ToString()});
    }

    // Crash image: halt persisting mid-run, optionally tear the WAL tail,
    // then resume at the other worker count.
    const std::string crash_dir = FreshDir(scratch_dir + "/crash");
    RunConfig crash = base;
    crash.persist_dir = crash_dir;
    crash.halt_after_barrier = e.halt_after_barrier;
    const RunArtifacts halted = RunReplay(e, crash);
    CheckBitIdentity("persist-transparency", "cold vs halted", cold, halted,
                     &violations);
    CheckWalFrontier(crash_dir, &violations);
    if (e.torn_tail_bytes > 0) {
      TearWalTail(crash_dir, e.torn_tail_bytes, &violations);
    }
    RunConfig resume = base;
    resume.jobs = e.jobs_b;
    resume.persist_dir = crash_dir;
    resume.resume = true;
    CheckResume(e, cold, RunReplay(e, resume), &violations);

    // Warm restart off the completed generation's snapshot: two warm runs
    // at different worker counts must agree byte-for-byte.
    persist::SnapshotData snapshot;
    const util::Status loaded =
        persist::LoadLatestSnapshot(complete_dir, &snapshot);
    if (!loaded.ok()) {
      violations.push_back({"warm-restart-determinism",
                            "no loadable snapshot after a complete run: " +
                                loaded.ToString()});
    } else {
      RunConfig warm_a = base;
      warm_a.warm = &snapshot.cache_entries;
      RunConfig warm_b = warm_a;
      warm_b.jobs = e.jobs_b;
      CheckBitIdentity("warm-restart-determinism",
                       "warm jobs=" + std::to_string(e.jobs_a) +
                           " vs jobs=" + std::to_string(e.jobs_b),
                       RunReplay(e, warm_a), RunReplay(e, warm_b),
                       &violations);
    }
  }

  // --- wire + verify + shard families -----------------------------------
  CheckWireTrials(e, &violations);
  if (e.check_verify) CheckVerifyPreservation(e, &violations);
  CheckShardScatter(e, &violations);

  return violations;
}

SweepResult SweepSeeds(uint64_t master_seed, int64_t count,
                       const std::string& scratch_dir) {
  SweepResult result;
  for (int64_t i = 0; i < count; ++i) {
    const Episode episode =
        DeriveEpisode(util::SplitSeed(master_seed, static_cast<uint64_t>(i)));
    std::vector<Violation> violations =
        RunEpisode(episode, scratch_dir + "/ep" + std::to_string(i));
    ++result.episodes_run;
    if (!violations.empty()) {
      result.failures.push_back({i, episode, std::move(violations)});
    }
  }
  return result;
}

Episode ShrinkEpisode(const Episode& failing, const std::string& scratch_dir,
                      std::vector<Violation>* violations) {
  Episode current = NormalizeEpisode(failing);
  const std::string shrink_dir = scratch_dir + "/shrink";
  auto still_fails = [&](const Episode& candidate,
                         std::vector<Violation>* out) {
    std::vector<Violation> v = RunEpisode(candidate, shrink_dir);
    const bool fails = !v.empty();
    if (fails && out != nullptr) *out = std::move(v);
    return fails;
  };

  // Dimension-disabling steps, cheapest first; each is kept only when the
  // shrunk episode still violates an invariant.
  const std::vector<std::function<void(Episode*)>> steps = {
      [](Episode* e) {
        e->wire_trials = 0;
        e->wire_corruption = WireCorruption::kNone;
      },
      [](Episode* e) { e->check_verify = false; },
      [](Episode* e) { e->shard_kill = false; },
      [](Episode* e) { e->shards = 0; },
      [](Episode* e) { e->torn_tail_bytes = 0; },
      [](Episode* e) { e->halt_after_barrier = -1; },
      [](Episode* e) { e->persist_enabled = false; },
      [](Episode* e) { e->transitivity = false; },
      [](Episode* e) { e->cache_capacity = -1; },
      [](Episode* e) { e->cache_enabled = false; },
      [](Episode* e) {
        e->spammer_fraction = 0.0;
        e->adversary_fraction = 0.0;
        e->lazy_fraction = 0.0;
        e->duplicate_fraction = 0.0;
        e->no_show_fraction = 0.0;
      },
      [](Episode* e) { e->abandon_probability = 0.0; },
      [](Episode* e) { e->max_queue = -1; },
      [](Episode* e) { e->algorithms = 1; },
      [](Episode* e) { e->jobs_b = 2; },
  };
  std::vector<Violation> last;
  for (const auto& step : steps) {
    Episode candidate = current;
    step(&candidate);
    candidate = NormalizeEpisode(candidate);
    if (ToSpec(candidate) == ToSpec(current)) continue;  // no-op step
    if (still_fails(candidate, &last)) current = candidate;
  }
  // Workload halving, each axis repeated while the failure survives.
  while (current.queries > 1) {
    Episode candidate = current;
    candidate.queries /= 2;
    candidate = NormalizeEpisode(candidate);
    if (!still_fails(candidate, &last)) break;
    current = candidate;
  }
  while (current.items > 4) {
    Episode candidate = current;
    candidate.items /= 2;
    candidate = NormalizeEpisode(candidate);  // re-clamps k below items
    if (!still_fails(candidate, &last)) break;
    current = candidate;
  }
  if (violations != nullptr) {
    if (last.empty()) still_fails(current, &last);
    *violations = std::move(last);
  }
  return current;
}

std::string ReplayCommand(const Episode& episode) {
  return "crowdtopk_sim --episode '" + ToSpec(episode) + "'";
}

}  // namespace crowdtopk::sim
