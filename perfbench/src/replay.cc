// The in-process replay workloads (README.md, "Workloads"):
//
//   replay_cold            64 SPR top-10 queries on imdb, in-flight 16, cache
//                          and persistence off;
//   replay_shared_durable  128 queries, all four algorithms round-robin over
//                          photo and jester, in-flight 64, cache and
//                          persistence on (WAL fsync off).
//
// One repetition = set-up (datasets, algorithms, trace, service) + one
// QueryService::Replay of one input stream. A repeated stream must reproduce
// each query's pure columns exactly.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/judgment_cache.h"
#include "data/generators.h"
#include "net/server.h"
#include "persist/format.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "probes.h"
#include "serve/arrival.h"
#include "serve/query_service.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workloads.h"

namespace crowdtopk::perfbench {
namespace {

struct ReplaySpec {
  std::vector<std::string> datasets;
  std::vector<std::string> algorithms;
  int64_t queries = 0;
  int64_t inflight = 0;
  bool shared = false;  // cache and persistence on
  // Input streams per run: the run replays the trace and serving seed of
  // each stream once, so it averages over several inputs, then repeats
  // streams until --seconds are measured.
  int streams = 0;
  // Percentile of latency_tail_ms: well over ten of the driver samples of
  // streams + 1 repetitions lie beyond it.
  double tail_percentile = 0.0;
};

ReplaySpec SpecFor(const std::string& workload) {
  ReplaySpec spec;
  if (workload == "replay_cold") {
    spec.datasets = {"imdb"};
    spec.algorithms = {"spr"};
    spec.queries = 64;
    spec.inflight = 16;
    spec.streams = 5;
    spec.tail_percentile = 95.0;  // 384 samples
  } else {
    spec.datasets = {"photo", "jester"};
    spec.algorithms = {"spr", "tourtree", "heapsort", "quickselect"};
    spec.queries = 128;
    spec.inflight = 64;
    spec.shared = true;
    spec.streams = 7;
    spec.tail_percentile = 95.0;  // 1024 samples; p99 spread too widely
  }
  return spec;
}

// Poisson arrival rate of the trace (the serving CLI's default).
constexpr double kArrivalRate = 0.01;

// Everything one replay needs, built during set-up.
struct Setup {
  std::vector<std::unique_ptr<data::Dataset>> datasets;
  std::vector<std::unique_ptr<core::TopKAlgorithm>> algorithms;
  std::vector<serve::QueryRequest> requests;
  std::vector<double> arrivals;
  serve::ServeOptions serve;
  std::unique_ptr<serve::QueryService> service;
};

std::string PersistDir(const RunOptions& options) {
  return options.scratch + "/persist";
}

serve::ServeOptions ServeOptionsFor(const ReplaySpec& spec,
                                    const RunOptions& options, uint64_t seed) {
  serve::ServeOptions serve;
  serve.schedule.crowd_workers = kCrowdWorkers;
  serve.schedule.per_pair_batch = kEta;
  serve.schedule.max_attempts = kAttempts;
  serve.max_inflight = spec.inflight;
  serve.jobs = 1;
  serve.seed = seed;
  if (spec.shared) {
    serve.cache.enabled = true;
    serve.persist.dir = PersistDir(options);
    serve.persist.wal_fsync = false;
  }
  return serve;
}

Setup BuildSetup(const ReplaySpec& spec, const RunOptions& options,
                 int stream, bool traced, DriverLog* log) {
  const uint64_t seed = util::SplitSeed(options.seed, stream);
  Setup setup;
  for (const std::string& name : spec.datasets) {
    std::unique_ptr<data::Dataset> dataset = data::MakeByName(
        name, util::SplitSeed(kDatasetSeed, util::Fnv1a64(name)));
    if (traced) dataset = std::make_unique<TimedDataset>(std::move(dataset));
    setup.datasets.push_back(std::move(dataset));
  }
  const net::AlgorithmFactory factory = net::DefaultAlgorithmFactory();
  judgment::ComparisonOptions comparison;
  comparison.alpha = kAlpha;
  for (const std::string& name : spec.algorithms) {
    setup.algorithms.push_back(std::make_unique<TimedAlgorithm>(
        factory(name, comparison), log, traced));
  }
  const size_t num_algorithms = setup.algorithms.size();
  setup.requests.resize(static_cast<size_t>(spec.queries));
  for (size_t q = 0; q < setup.requests.size(); ++q) {
    setup.requests[q].algorithm = setup.algorithms[q % num_algorithms].get();
    setup.requests[q].dataset =
        setup.datasets[(q / num_algorithms) % setup.datasets.size()].get();
    setup.requests[q].k = kTopK;
  }
  setup.arrivals = serve::PoissonArrivals(spec.queries, kArrivalRate, seed);
  setup.serve = ServeOptionsFor(spec, options, seed);
  setup.service = std::make_unique<serve::QueryService>(setup.serve);
  return setup;
}

// The columns the serving layer's determinism contract pins per query.
struct PureColumns {
  std::vector<crowd::ItemId> items;
  int64_t microtasks = 0;
  int64_t rounds_private = 0;
  bool operator==(const PureColumns& other) const {
    return items == other.items && microtasks == other.microtasks &&
           rounds_private == other.rounds_private;
  }
};

struct Rep {
  int stream = 0;
  double wall_s = 0.0;
  int64_t completed = 0;
  int64_t microtasks = 0;
  std::vector<double> latency_ms;  // driver wall per query (Run decorator)
  std::vector<double> rounds;
  std::vector<double> precision;
  std::vector<PureColumns> pure;
  std::map<std::string, double> layer;  // traced repetitions only
  // Artifacts for the post-run layer timings (traced repetitions only).
  std::vector<cache::ExportedEntry> cache_image;
};

Rep RunRep(const ReplaySpec& spec, const RunOptions& options, int stream,
           bool traced, Report* report) {
  DriverLog log;
  Rep rep;
  rep.stream = stream;
  Setup setup = BuildSetup(spec, options, stream, traced, &log);

  const Usage usage_before = ProcessUsage();
  const int64_t cpu_before = ThreadCpuNs();
  int64_t start = WallNs();
  const std::vector<serve::QueryOutcome> outcomes =
      setup.service->Replay(setup.requests, setup.arrivals);
  rep.wall_s = static_cast<double>(WallNs() - start) * 1e-9;
  const double service_cpu_s =
      static_cast<double>(ThreadCpuNs() - cpu_before) * 1e-9;
  const Usage usage_after = ProcessUsage();

  serve::QueryService& service = *setup.service;
  if (!service.persist_status().ok()) {
    report->Fail("persistence: " + service.persist_status().ToString());
  }
  for (size_t q = 0; q < outcomes.size(); ++q) {
    const serve::QueryOutcome& o = outcomes[q];
    const bool ok = o.status.ok() && !o.rejected &&
                    ValidTopK(o.items, setup.requests[q].dataset->num_items());
    report->Attempt(ok);
    rep.pure.push_back(
        PureColumns{o.items, o.total_microtasks, o.rounds_private});
    if (!ok) continue;
    ++rep.completed;
    rep.microtasks += o.total_microtasks;
    rep.rounds.push_back(static_cast<double>(o.rounds_observed));
    rep.precision.push_back(o.precision_at_k);
  }
  const std::vector<DriverSample> samples = log.Take();
  if (samples.size() != outcomes.size()) {
    report->Fail("algorithm decorator saw " + std::to_string(samples.size()) +
                 " runs for " + std::to_string(outcomes.size()) + " queries");
  }
  for (const DriverSample& s : samples) {
    rep.latency_ms.push_back(static_cast<double>(s.wall_ns) * 1e-6);
  }
  if (!traced) return rep;

  // ----- per-layer metrics of this repetition ------------------------------
  std::map<std::string, double>& m = rep.layer;
  int64_t purchased = 0;
  for (const serve::QueryOutcome& o : outcomes) purchased += o.total_microtasks;
  AddDriverMetrics(samples, purchased, &m, report);

  const serve::AssignmentStats assignments = service.assignment_stats();
  m["serve.replay_wall_s"] = rep.wall_s;
  m["serve.service_cpu_s"] = service_cpu_s;
  m["serve.assignments_scheduled"] = static_cast<double>(assignments.scheduled);
  m["serve.rounds"] = static_cast<double>(service.total_rounds());
  m["serve.service_ns_per_assignment"] =
      assignments.scheduled > 0 ? service_cpu_s * 1e9 / assignments.scheduled
                                : 0.0;
  const double switches = static_cast<double>(
      usage_after.voluntary_switches - usage_before.voluntary_switches);
  m["serve.voluntary_ctx_switches"] = switches;
  m["serve.ctx_switches_per_round"] =
      service.total_rounds() > 0 ? switches / service.total_rounds() : 0.0;
  m["serve.sys_s"] = usage_after.sys_s - usage_before.sys_s;
  m["serve.user_s"] = usage_after.user_s - usage_before.user_s;
  m["serve.expired"] = static_cast<double>(assignments.expired);
  m["serve.requeued"] = static_cast<double>(assignments.requeued);

  if (spec.shared) {
    const cache::CacheStats cs = service.cache_stats();
    if (cs.lookups != cs.hits + cs.topups + cs.inferred + cs.misses) {
      report->Fail("cache.lookups " + std::to_string(cs.lookups) +
                   " != hits + topups + inferred + misses");
    }
    m["cache.lookups"] = static_cast<double>(cs.lookups);
    m["cache.hit_ratio"] =
        cs.lookups > 0
            ? static_cast<double>(cs.hits + cs.topups + cs.inferred) /
                  cs.lookups
            : 0.0;
    m["cache.seeded_samples"] = static_cast<double>(cs.seeded_samples);
    m["cache.pairs"] = static_cast<double>(cs.pairs);

    // The chaining cost a network batch pays: export the final image and
    // restore it into a fresh cache.
    start = WallNs();
    rep.cache_image = service.ExportCache();
    cache::JudgmentCache restored(setup.serve.cache);
    restored.RestoreEntries(rep.cache_image);
    m["cache.restore_ms"] = static_cast<double>(WallNs() - start) * 1e-6;

    const persist::PersistCounters pc = service.persist_counters();
    persist::SnapshotData last;
    const util::Status loaded =
        persist::LoadLatestSnapshot(PersistDir(options), &last);
    if (!loaded.ok()) report->Fail("snapshot: " + loaded.ToString());
    m["persist.wal_batches"] = static_cast<double>(last.barrier.barrier + 1);
    m["persist.wal_records"] = static_cast<double>(pc.wal_records);
    m["persist.wal_bytes"] = static_cast<double>(pc.wal_bytes);
    m["persist.snapshots"] = static_cast<double>(pc.snapshots);
    m["persist.snapshot_bytes"] = static_cast<double>(pc.snapshot_bytes);
  }
  return rep;
}

// Re-encodes a read-back WAL record into its payload.
std::string EncodeRecord(const persist::WalRecord& r) {
  switch (r.type) {
    case persist::RecordType::kAdmit:
      return persist::EncodeAdmit(r.query_id);
    case persist::RecordType::kReject:
      return persist::EncodeReject(r.query_id);
    case persist::RecordType::kComplete:
      return persist::EncodeComplete(r.complete);
    case persist::RecordType::kCacheInsert:
      return persist::EncodeCacheInsert(r.cache_insert);
    case persist::RecordType::kBarrier:
      return persist::EncodeBarrier(r.barrier);
  }
  return std::string();
}

// Layer timings measured once per traced run on the run's own artifacts:
// cache lookups over the exported image, snapshot writes of the last image,
// and WAL appends of the run's batches. Adds them to `layer`.
void MeasureStorage(const ReplaySpec& spec, const RunOptions& options,
                    const Rep& rep, std::map<std::string, double>* layer,
                    Report* report) {
  namespace fs = std::filesystem;
  std::map<std::string, double>& m = *layer;

  // cache.lookup_ns: every exported pair, looked up at the queries' alpha.
  cache::CacheOptions cache_options;
  cache_options.enabled = true;
  cache::JudgmentCache cache(cache_options);
  cache.RestoreEntries(rep.cache_image);
  const judgment::ComparisonOptions comparison;
  int64_t lookups = 0;
  const int64_t lookup_start = WallNs();
  while (lookups == 0 || WallNs() - lookup_start < 50'000'000) {
    for (const cache::ExportedEntry& e : rep.cache_image) {
      cache.Lookup(e.universe, e.lo, e.hi, kAlpha, comparison.budget,
                   static_cast<cache::JudgmentKind>(e.kind));
      ++lookups;
    }
    if (rep.cache_image.empty()) break;
  }
  m["cache.lookup_ns"] =
      lookups > 0 ? static_cast<double>(WallNs() - lookup_start) / lookups
                  : 0.0;

  // persist.snapshot_ms: rewrite the run's last snapshot image.
  persist::SnapshotData last;
  if (!persist::LoadLatestSnapshot(PersistDir(options), &last).ok()) {
    report->Fail("cannot reload the last snapshot");
    return;
  }
  const fs::path copy_dir = fs::path(options.scratch) / "storage_copy";
  fs::remove_all(copy_dir);
  fs::create_directories(copy_dir);
  std::vector<double> snapshot_ms;
  for (int i = 0; i < 5; ++i) {
    const int64_t start = WallNs();
    const util::Status written =
        persist::WriteSnapshot((copy_dir / "snapshot.bin").string(), last);
    snapshot_ms.push_back(static_cast<double>(WallNs() - start) * 1e-6);
    if (!written.ok()) report->Fail("snapshot write: " + written.ToString());
  }
  m["persist.snapshot_ms"] = Median(snapshot_ms);
  m["persist.snapshot_share"] =
      m["persist.snapshots"] * m["persist.snapshot_ms"] * 1e-3 /
      m["serve.replay_wall_s"];

  // persist.append_us: the measured replay prunes its WAL behind every
  // snapshot, so capture the batches with one more (untimed) replay that
  // takes no snapshots and stops persisting after its last barrier.
  DriverLog log;
  Setup capture = BuildSetup(spec, options, rep.stream, false, &log);
  capture.serve.persist.snapshot_every = 0;
  capture.serve.persist.halt_after_barrier =
      static_cast<int64_t>(m["persist.wal_batches"]) - 1;
  capture.service = std::make_unique<serve::QueryService>(capture.serve);
  capture.service->Replay(capture.requests, capture.arrivals);
  util::StatusOr<persist::WalReadResult> wal =
      persist::ReadWal(PersistDir(options), 0);
  if (!wal.ok()) {
    report->Fail("WAL read: " + wal.status().ToString());
    return;
  }
  std::vector<std::vector<std::string>> batches(1);
  for (const persist::WalRecord& record : wal->records) {
    batches.back().push_back(EncodeRecord(record));
    if (record.type == persist::RecordType::kBarrier) batches.emplace_back();
  }
  batches.pop_back();
  if (static_cast<double>(batches.size()) != m["persist.wal_batches"]) {
    report->Fail("captured " + std::to_string(batches.size()) +
                 " WAL batches, the measured replay sealed " +
                 std::to_string(static_cast<int64_t>(
                     m["persist.wal_batches"])));
  }
  persist::WalWriterOptions writer_options;
  writer_options.dir = (copy_dir / "wal").string();
  writer_options.fsync = false;
  fs::create_directories(writer_options.dir);
  persist::WalWriter writer(writer_options, 0);
  const int64_t append_start = WallNs();
  for (const std::vector<std::string>& batch : batches) {
    const util::Status appended = writer.AppendBatch(batch);
    if (!appended.ok()) {
      report->Fail("WAL append: " + appended.ToString());
      return;
    }
  }
  m["persist.append_us"] =
      batches.empty() ? 0.0
                      : static_cast<double>(WallNs() - append_start) * 1e-3 /
                            static_cast<double>(batches.size());
  fs::remove_all(copy_dir);
}

}  // namespace

void RunReplayWorkload(const RunOptions& options, Report* report) {
  const ReplaySpec spec = SpecFor(options.workload);
  std::vector<double> setup_s;
  std::vector<Rep> reps;
  double measured_s = 0.0;
  const auto run = [&](int stream, bool traced) {
    for (int i = 0; !options.trace && i < kSetupSamplesPerRepetition; ++i) {
      DriverLog log;
      const int64_t start = WallNs();
      BuildSetup(spec, options, stream, false, &log);
      setup_s.push_back(static_cast<double>(WallNs() - start) * 1e-9);
    }
    reps.push_back(RunRep(spec, options, stream, traced, report));
    measured_s += reps.back().wall_s;
    for (const Rep& earlier : reps) {
      if (earlier.stream == stream && earlier.pure != reps.back().pure) {
        report->Fail("repetition " + std::to_string(reps.size() - 1) +
                     " changed a query's items, microtasks or private rounds");
        break;
      }
    }
  };
  if (!options.trace) {
    // Every stream once, then repeats from stream 0 on: at least one, which
    // the check above compares with the stream's first replay.
    for (int stream = 0; stream < spec.streams; ++stream) run(stream, false);
    int repeat = 0;
    do {
      run(repeat++ % spec.streams, false);
    } while (measured_s < options.seconds && measured_s < kMaxMeasureSeconds);
  } else {
    // One untraced replay of stream 0 first: its queries_per_s is the base
    // of the tracing overhead, and its pure columns must match the traced
    // repetitions of the same stream (no observer effect).
    run(0, false);
    do {
      run(0, true);
    } while ((reps.size() < 3 || measured_s < options.seconds) &&
             measured_s < kMaxMeasureSeconds);
  }

  std::vector<double> latency, rounds, precision;
  int64_t completed = 0, microtasks = 0;
  // Throughput over the whole measured phase (every measured repetition).
  double wall_s = 0.0, completed_all = 0.0, microtasks_all = 0.0;
  const size_t first = options.trace ? 1 : 0;
  for (size_t r = first; r < reps.size(); ++r) {
    const Rep& rep = reps[r];
    wall_s += rep.wall_s;
    completed_all += static_cast<double>(rep.completed);
    microtasks_all += static_cast<double>(rep.microtasks);
    latency.insert(latency.end(), rep.latency_ms.begin(), rep.latency_ms.end());
    // The simulated columns repeat exactly per stream; count each once.
    if (r >= first + static_cast<size_t>(spec.streams)) continue;
    rounds.insert(rounds.end(), rep.rounds.begin(), rep.rounds.end());
    precision.insert(precision.end(), rep.precision.begin(),
                     rep.precision.end());
    completed += rep.completed;
    microtasks += rep.microtasks;
  }
  char note[256];
  std::snprintf(note, sizeof(note),
                "%s seed=%llu: %zu repetitions, %.2f s measured, "
                "latency_tail_ms is p%.0f over %zu driver samples, "
                "error_rate=%lld/%lld",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), reps.size(),
                measured_s, spec.tail_percentile, latency.size(),
                static_cast<long long>(report->failed()),
                static_cast<long long>(report->attempted()));
  report->Note(note);

  const double qps = completed_all / wall_s;
  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_s);
    e2e.queries_per_s = qps;
    e2e.microtasks_per_s = microtasks_all / wall_s;
    e2e.latency_p50_ms = Median(latency);
    e2e.latency_tail_ms = Percentile(latency, spec.tail_percentile);
    e2e.tmc_per_query =
        completed > 0 ? static_cast<double>(microtasks) / completed : 0.0;
    e2e.rounds_per_query = Mean(rounds);
    e2e.precision_at_k = Mean(precision);
    AddEndToEndMetrics(e2e, report);
    return;
  }

  // Per-layer: the median over traced repetitions of each metric.
  std::map<std::string, double> layer;
  for (const auto& [name, unused] : reps.back().layer) {
    std::vector<double> values;
    for (size_t r = first; r < reps.size(); ++r) {
      values.push_back(reps[r].layer.at(name));
    }
    layer[name] = Median(values);
  }
  if (spec.shared) MeasureStorage(spec, options, reps.back(), &layer, report);
  const double base_qps = reps.front().completed / reps.front().wall_s;
  layer["latency.tail_percentile"] = spec.tail_percentile;
  layer["latency.samples"] = static_cast<double>(latency.size());
  layer["trace.base_queries_per_s"] = base_qps;
  layer["trace.overhead_ratio"] = qps / base_qps;
  AddLayerMetrics(layer, report);
}

}  // namespace crowdtopk::perfbench
