// crowdtopk_serve: replay a seeded open-loop Poisson trace of concurrent
// top-k queries against the shared-capacity serving layer (src/serve) and
// report throughput plus p50/p95/p99 query latency in batch rounds and
// simulated seconds.
//
// All knobs are environment variables (run with --help for the full list).
// Modes:
//   (none)     fresh replay; with CROWDTOPK_PERSIST_DIR set, also starts a
//              fresh durable generation (snapshots + WAL, src/persist)
//   --resume   recover CROWDTOPK_PERSIST_DIR and re-execute as verified
//              catch-up: the report and every trace byte match an
//              uninterrupted run, and already-durable crowd work is
//              accounted as replayed rather than re-purchased
//   --warm     load the newest snapshot's judgment-cache image and serve
//              the (new) trace warm — the cross-generation reuse path;
//              needs CROWDTOPK_CACHE=1
//
// Exit codes: 0 ok (including a degraded resume after WAL-tail damage,
// which is reported, not fatal); 2 bad argument, knob out of range,
// unknown dataset or algorithm name, or persistence error (configuration
// fingerprint mismatch, other format version, write failure); 3 catch-up
// divergence (durable records disagree with deterministic re-execution —
// file a bug).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/generators.h"
#include "persist/recovery.h"
#include "serve/arrival.h"
#include "serve/query_service.h"
#include "serve/report.h"
#include "util/env.h"

namespace {

using namespace crowdtopk;

constexpr char kHelp[] = R"(crowdtopk_serve [--help] [--resume | --warm]

Replays a seeded open-loop trace of concurrent top-k queries against the
shared-capacity serving layer and prints a deterministic report (byte-
identical for every CROWDTOPK_JOBS value).

Modes
  --resume  recover CROWDTOPK_PERSIST_DIR (snapshot + WAL) and re-execute
            as verified catch-up; requires the same knobs as the original
            run (jobs may differ)
  --warm    preload the judgment cache from the newest snapshot in
            CROWDTOPK_PERSIST_DIR, then serve the trace as a fresh run;
            requires CROWDTOPK_CACHE=1

Workload knobs
  CROWDTOPK_SERVE_QUERIES   queries in the trace             (default 60)
  CROWDTOPK_SERVE_RATE      Poisson arrival rate lambda /s   (default 0.01)
  CROWDTOPK_SERVE_DATASET   imdb|book|jester|photo|peopleage (peopleage)
  CROWDTOPK_SERVE_K         top-k                            (default 10)
  CROWDTOPK_SERVE_ALPHA     significance level               (default 0.02)
  CROWDTOPK_SERVE_ALGOS     comma list: spr,tourtree,heapsort,quickselect
                            — query q runs algos[q mod len]  (all four)

Crowd / admission knobs
  CROWDTOPK_SERVE_WORKERS   crowd worker slots W per round   (default 100)
  CROWDTOPK_SERVE_ETA       per-pair batch cap eta           (default 30)
  CROWDTOPK_SERVE_INFLIGHT  max concurrently served queries  (default 16)
  CROWDTOPK_SERVE_QUEUE     admission queue bound, <0 = inf  (default -1)
  CROWDTOPK_SERVE_DEADLINE  assignment deadline seconds      (default 60)
  CROWDTOPK_SERVE_ABANDON   worker abandonment probability   (default 0.03)
  CROWDTOPK_SERVE_ATTEMPTS  dispatch attempts per microtask  (default 4)

Cross-query cache knobs
  CROWDTOPK_CACHE           =1 shares judgments across queries (default 0)
  CROWDTOPK_CACHE_CAPACITY  max cached pairs, <0 inf, 0 none (default -1)
  CROWDTOPK_CACHE_TRANSITIVITY  =1 serves composed verdicts  (default 0)

Durable-state knobs (src/persist, docs/PERSISTENCE.md)
  CROWDTOPK_PERSIST_DIR     snapshot + WAL directory; empty = persistence
                            off                              (default "")
  CROWDTOPK_SNAPSHOT_EVERY  minimum barriers between snapshots; a
                            snapshot also waits until the judgment cache
                            has doubled; <=0 = final only    (default 8)
  CROWDTOPK_WAL_FSYNC       =1 fdatasync every WAL batch     (default 1)
  CROWDTOPK_WAL_SEGMENT_BYTES  WAL segment rotation size, >= 1
                                                             (default 1MiB)
  CROWDTOPK_PERSIST_KILL_BARRIER  _Exit(137) after barrier N is durable —
                            crash-recovery CI hook           (default -1)

Output knobs
  CROWDTOPK_SERVE_PER_QUERY =1 prints the per-query CSV table (default 0)
  CROWDTOPK_SERVE_REPORT    path for the machine-readable JSONL report
                            (summary + per-query records); empty = none
  CROWDTOPK_SEED            master seed                (default 20170514)
  CROWDTOPK_JOBS            wave-simulation threads; unset or 0 = one
                            per hardware thread, 1 = serial  (default 0)
  CROWDTOPK_TRACE=1, CROWDTOPK_TRACE_DIR  per-query telemetry traces
                            (docs/OBSERVABILITY.md)

Exit codes: 0 ok (degraded resume included), 2 bad argument, knob out
of range, unknown dataset or algorithm name, or persistence error, 3
catch-up divergence.
)";

// Reports a knob value out of its range or naming no dataset or
// algorithm; exit code 2.
int BadKnob(const std::string& message) {
  std::fprintf(stderr, "crowdtopk_serve: %s (try --help)\n",
               message.c_str());
  return 2;
}

int UnknownName(const std::string& knob, const std::string& value) {
  return BadKnob("unknown " + knob + " '" + value + "'");
}

}  // namespace

int main(int argc, char** argv) {
  bool resume = false;
  bool warm = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf("%s", kHelp);
      return 0;
    }
    if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--warm") == 0) {
      warm = true;
    } else {
      std::fprintf(stderr, "unknown argument %s (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (resume && warm) {
    std::fprintf(stderr, "--resume and --warm are mutually exclusive\n");
    return 2;
  }

  const int64_t queries = util::GetEnvInt64("CROWDTOPK_SERVE_QUERIES", 60);
  const double rate = util::GetEnvDouble("CROWDTOPK_SERVE_RATE", 0.01);
  const std::string dataset_name =
      util::GetEnvString("CROWDTOPK_SERVE_DATASET", "peopleage");
  const int64_t k = util::GetEnvInt64("CROWDTOPK_SERVE_K", 10);
  judgment::ComparisonOptions comparison;
  comparison.alpha = util::GetEnvDouble("CROWDTOPK_SERVE_ALPHA", 0.02);
  const std::string algo_list = util::GetEnvString(
      "CROWDTOPK_SERVE_ALGOS", "spr,tourtree,heapsort,quickselect");
  const uint64_t seed = util::BenchSeed();

  serve::ServeOptions options;
  options.schedule.crowd_workers =
      util::GetEnvInt64("CROWDTOPK_SERVE_WORKERS", 100);
  options.schedule.per_pair_batch = util::GetEnvInt64("CROWDTOPK_SERVE_ETA", 30);
  options.schedule.deadline_seconds =
      util::GetEnvDouble("CROWDTOPK_SERVE_DEADLINE", 60.0);
  options.schedule.abandon_probability =
      util::GetEnvDouble("CROWDTOPK_SERVE_ABANDON", 0.03);
  options.schedule.max_attempts =
      util::GetEnvInt64("CROWDTOPK_SERVE_ATTEMPTS", 4);
  options.max_inflight = util::GetEnvInt64("CROWDTOPK_SERVE_INFLIGHT", 16);
  options.max_queue = util::GetEnvInt64("CROWDTOPK_SERVE_QUEUE", -1);
  options.jobs = util::BenchJobs();
  options.seed = seed;
  if (util::TraceEnabled()) options.trace_dir = util::TraceDir();
  options.cache.enabled = util::CacheEnabled();
  options.cache.capacity = util::CacheCapacity();
  options.cache.transitivity = util::CacheTransitivity();
  options.persist.dir = util::PersistDir();
  options.persist.snapshot_every = util::SnapshotEvery();
  options.persist.wal_fsync = util::WalFsync();
  options.persist.wal_segment_bytes = util::WalSegmentBytes();
  options.persist.kill_at_barrier = util::PersistKillBarrier();
  options.persist.resume = resume;
  // Each condition is written so that a NaN fails it.
  if (queries < 0) return BadKnob("CROWDTOPK_SERVE_QUERIES must be >= 0");
  if (!(rate > 0.0)) return BadKnob("CROWDTOPK_SERVE_RATE must be > 0");
  if (k < 1) return BadKnob("CROWDTOPK_SERVE_K must be >= 1");
  if (!(comparison.alpha > 0.0 && comparison.alpha < 1.0)) {
    return BadKnob("CROWDTOPK_SERVE_ALPHA must be in (0, 1)");
  }
  const util::Status schedule =
      serve::CheckScheduleOptions(options.schedule, options.max_inflight);
  if (!schedule.ok()) return BadKnob(schedule.message());
  if (options.persist.wal_segment_bytes < 1) {
    return BadKnob("CROWDTOPK_WAL_SEGMENT_BYTES must be >= 1");
  }
  if ((resume || warm) && options.persist.dir.empty()) {
    std::fprintf(stderr,
                 "--%s requires CROWDTOPK_PERSIST_DIR (try --help)\n",
                 resume ? "resume" : "warm");
    return 2;
  }
  // Without a cache the image would be dropped and the run served cold.
  if (warm && !options.cache.enabled) {
    return BadKnob("--warm requires CROWDTOPK_CACHE=1");
  }
  persist::SnapshotData snapshot;
  if (warm) {
    // Warm restart: lift the previous generation's cache image out of the
    // newest snapshot, then run as a *fresh* generation (the image enters
    // the new run's cache as restored entries; persistence, if still
    // enabled, starts over for the new trace).
    const util::Status status =
        persist::LoadLatestSnapshot(options.persist.dir, &snapshot);
    if (!status.ok()) {
      std::fprintf(stderr, "--warm: %s\n", status.ToString().c_str());
      return 2;
    }
    std::printf("warm restart: %zu cached pairs from barrier %lld\n",
                snapshot.cache_entries.size(),
                static_cast<long long>(snapshot.barrier.barrier));
  }

  const std::unique_ptr<data::Dataset> dataset =
      data::MakeByName(dataset_name, seed);
  if (dataset == nullptr) {
    return UnknownName("CROWDTOPK_SERVE_DATASET", dataset_name);
  }
  if (k > dataset->num_items()) {
    return BadKnob("CROWDTOPK_SERVE_K must be <= " +
                   std::to_string(dataset->num_items()) + ", the items in " +
                   dataset_name);
  }
  std::vector<std::unique_ptr<core::TopKAlgorithm>> algorithms;
  for (const std::string& name : util::SplitCsv(algo_list)) {
    algorithms.push_back(baselines::MakeAlgorithm(name, comparison));
    if (algorithms.back() == nullptr) {
      return UnknownName("CROWDTOPK_SERVE_ALGOS entry", name);
    }
  }
  if (algorithms.empty()) {
    return UnknownName("CROWDTOPK_SERVE_ALGOS", algo_list);
  }

  std::vector<serve::QueryRequest> requests(queries);
  for (int64_t q = 0; q < queries; ++q) {
    requests[q].algorithm = algorithms[q % algorithms.size()].get();
    requests[q].dataset = dataset.get();
    requests[q].k = k;
  }
  const std::vector<double> arrivals =
      serve::PoissonArrivals(queries, rate, seed);

  std::printf(
      "crowdtopk_serve: %lld queries (%s, k=%lld) on %s, lambda=%.4f/s\n",
      static_cast<long long>(queries), algo_list.c_str(),
      static_cast<long long>(k), dataset_name.c_str(), rate);
  std::printf(
      "crowd: W=%lld workers/round, eta=%lld, deadline=%.1fs, "
      "abandon=%.3f, attempts=%lld | admission: inflight<=%lld, queue=%lld\n",
      static_cast<long long>(options.schedule.crowd_workers),
      static_cast<long long>(options.schedule.per_pair_batch),
      options.schedule.deadline_seconds,
      options.schedule.abandon_probability,
      static_cast<long long>(options.schedule.max_attempts),
      static_cast<long long>(options.max_inflight),
      static_cast<long long>(options.max_queue));
  std::printf("seed=%llu (report is bit-identical for any CROWDTOPK_JOBS)\n\n",
              static_cast<unsigned long long>(seed));

  serve::QueryService service(options);
  if (warm) service.RestoreCache(snapshot.cache_entries);
  const std::vector<serve::QueryOutcome> outcomes =
      service.Replay(requests, arrivals);
  const serve::ServeReport report = serve::BuildServeReport(
      outcomes, service.assignment_stats(), service.makespan_seconds(),
      service.total_rounds());

  if (util::GetEnvBool("CROWDTOPK_SERVE_PER_QUERY", false)) {
    std::printf("%s\n", serve::RenderQueryTable(outcomes).c_str());
  }
  std::printf("%s", serve::RenderServeReport(report).c_str());
  if (options.cache.enabled) {
    const cache::CacheStats cs = service.cache_stats();
    std::printf(
        "\ncache: lookups=%lld hits=%lld topups=%lld inferred=%lld "
        "misses=%lld | pairs=%lld inserts=%lld upgrades=%lld dropped=%lld "
        "seeded_samples=%lld restored=%lld\n",
        static_cast<long long>(cs.lookups), static_cast<long long>(cs.hits),
        static_cast<long long>(cs.topups), static_cast<long long>(cs.inferred),
        static_cast<long long>(cs.misses), static_cast<long long>(cs.pairs),
        static_cast<long long>(cs.inserts),
        static_cast<long long>(cs.upgrades),
        static_cast<long long>(cs.dropped_capacity),
        static_cast<long long>(cs.seeded_samples),
        static_cast<long long>(cs.restored));
    for (const auto& [universe, dropped] : cs.dropped_by_universe) {
      std::printf("cache: universe %lld dropped %lld inserts at capacity\n",
                  static_cast<long long>(universe),
                  static_cast<long long>(dropped));
    }
  }

  const std::string report_path =
      util::GetEnvString("CROWDTOPK_SERVE_REPORT", "");
  if (!report_path.empty()) {
    const util::Status status =
        serve::WriteServeReportJsonl(report, outcomes, report_path);
    if (!status.ok()) {
      std::fprintf(stderr, "serve report: %s\n", status.ToString().c_str());
      return 2;
    }
  }

  if (!options.persist.dir.empty()) {
    const persist::PersistCounters pc = service.persist_counters();
    std::printf(
        "\npersist: wal_records=%lld wal_segments=%lld snapshots=%lld"
        " | resumed=%lld snapshots_skipped=%lld durable_barrier=%lld"
        " verified=%lld divergent=%lld replayed_microtasks=%lld"
        " dropped_records=%lld dropped_bytes=%lld\n",
        static_cast<long long>(pc.wal_records),
        static_cast<long long>(pc.wal_segments),
        static_cast<long long>(pc.snapshots),
        static_cast<long long>(pc.resumed),
        static_cast<long long>(pc.snapshots_skipped),
        static_cast<long long>(pc.durable_barrier),
        static_cast<long long>(pc.verified_barriers),
        static_cast<long long>(pc.divergent_barriers),
        static_cast<long long>(service.replayed_microtasks()),
        static_cast<long long>(pc.wal_records_dropped),
        static_cast<long long>(pc.wal_bytes_dropped));
    if (!service.persist_status().ok()) {
      std::fprintf(stderr, "persist: %s\n",
                   service.persist_status().ToString().c_str());
      return 2;
    }
    if (pc.divergent_barriers > 0 || pc.cache_image_divergent > 0) {
      std::fprintf(stderr,
                   "persist: durable records disagree with deterministic "
                   "re-execution — this is a bug, not data loss\n");
      return 3;
    }
  }
  return 0;
}
