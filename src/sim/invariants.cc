#include "sim/invariants.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "baselines/registry.h"
#include "exec/run_engine.h"
#include "persist/format.h"
#include "persist/wal.h"
#include "shard/hash.h"
#include "shard/local_backend.h"
#include "shard/report.h"
#include "shard/router.h"
#include "sim/environment.h"
#include "sim/loopback.h"
#include "util/file_io.h"
#include "verify/guarantee.h"

namespace crowdtopk::sim {

namespace {

std::string I64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

// First byte offset where two blobs differ, with a short context window —
// a failing seed should be diagnosable from the violation text alone.
std::string FirstDiff(const std::string& a, const std::string& b) {
  size_t n = std::min(a.size(), b.size());
  size_t at = n;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      at = i;
      break;
    }
  }
  if (at == n && a.size() == b.size()) return "equal";
  std::string detail = "sizes " + I64(static_cast<int64_t>(a.size())) + " vs " +
                       I64(static_cast<int64_t>(b.size())) + ", first diff @" +
                       I64(static_cast<int64_t>(at));
  size_t from = at > 20 ? at - 20 : 0;
  detail += " [";
  detail += a.substr(from, std::min<size_t>(40, a.size() - from));
  detail += "] vs [";
  detail += b.substr(from, std::min<size_t>(40, b.size() - from));
  detail += "]";
  return detail;
}

void CompareBlobs(const std::string& invariant, const std::string& label,
                  const char* what, const std::string& a, const std::string& b,
                  std::vector<Violation>* out) {
  if (a == b) return;
  out->push_back(
      {invariant, label + ": " + what + " differ: " + FirstDiff(a, b)});
}

}  // namespace

void CheckBitIdentity(const std::string& invariant, const std::string& label,
                      const RunArtifacts& a, const RunArtifacts& b,
                      std::vector<Violation>* out) {
  CompareBlobs(invariant, label, "report jsonl", a.report_jsonl, b.report_jsonl,
               out);
  CompareBlobs(invariant, label, "query table", a.query_table, b.query_table,
               out);
}

void CheckTableIdentity(const std::string& invariant, const std::string& label,
                        const RunArtifacts& a, const RunArtifacts& b,
                        std::vector<Violation>* out) {
  CompareBlobs(invariant, label, "query table", a.query_table, b.query_table,
               out);
}

void CheckCacheExport(const Episode& episode, const RunArtifacts& run,
                      std::vector<Violation>* out) {
  constexpr char kName[] = "cache-export-soundness";
  std::set<std::pair<int64_t, std::pair<int64_t, int64_t>>> pairs;
  for (const cache::ExportedEntry& e : run.cache_export) {
    // The alpha gate: an entry is only ever served when its cached error
    // bound covers the requester's, so a committed bound outside (0, 1]
    // would poison every later hit decision.
    if (!(e.entry.alpha > 0.0) || e.entry.alpha > 1.0 ||
        !std::isfinite(e.entry.alpha)) {
      out->push_back({kName, "entry (" + I64(e.universe) + "," + I64(e.lo) +
                                 "," + I64(e.hi) + ") has alpha outside (0,1]"});
    }
    if (!std::isfinite(e.entry.mean) || !std::isfinite(e.entry.m2) ||
        e.entry.m2 < 0.0 || e.entry.count < 0) {
      out->push_back({kName, "entry (" + I64(e.universe) + "," + I64(e.lo) +
                                 "," + I64(e.hi) + ") has a malformed bag"});
    }
    if (e.lo >= e.hi) {
      out->push_back({kName, "entry not in canonical lo<hi orientation: " +
                                 I64(e.lo) + "," + I64(e.hi)});
    }
    pairs.insert({e.universe, {e.lo, e.hi}});
  }
  if (episode.cache_capacity >= 0 &&
      static_cast<int64_t>(pairs.size()) > episode.cache_capacity) {
    out->push_back({kName, "exported " + I64(static_cast<int64_t>(pairs.size())) +
                               " distinct pairs over capacity " +
                               I64(episode.cache_capacity)});
  }
  const cache::CacheStats& s = run.cache_stats;
  if (s.lookups != s.hits + s.topups + s.inferred + s.misses) {
    out->push_back({kName, "lookup counters do not sum: lookups=" +
                               I64(s.lookups) + " hits=" + I64(s.hits) +
                               " topups=" + I64(s.topups) + " inferred=" +
                               I64(s.inferred) + " misses=" + I64(s.misses)});
  }
  if (!episode.transitivity && s.inferred != 0) {
    out->push_back({kName, "inferred verdicts served with transitivity off: " +
                               I64(s.inferred)});
  }
}

void CheckResume(const Episode& episode, const RunArtifacts& cold,
                 const RunArtifacts& resumed, std::vector<Violation>* out) {
  constexpr char kName[] = "resume-identity";
  CompareBlobs(kName, "cold vs resumed", "report jsonl", cold.report_jsonl,
               resumed.report_jsonl, out);
  CompareBlobs(kName, "cold vs resumed", "query table", cold.query_table,
               resumed.query_table, out);
  if (!resumed.persist_status.ok()) {
    out->push_back(
        {kName, "resume persist status: " + resumed.persist_status.ToString()});
  }
  if (resumed.persist.resumed != 1) {
    out->push_back({kName, "resume ran without recovery (resumed=" +
                               I64(resumed.persist.resumed) + ")"});
  }
  if (resumed.persist.divergent_barriers != 0) {
    out->push_back({kName, "catch-up digest divergence on " +
                               I64(resumed.persist.divergent_barriers) +
                               " barriers"});
  }
  if (resumed.persist.cache_image_divergent != 0) {
    out->push_back({kName, "cache image divergence on " +
                               I64(resumed.persist.cache_image_divergent) +
                               " snapshot barriers"});
  }
  // Crowd-work accounting: a resume that verified durable barriers with
  // completed queries in them must account their microtasks as replayed,
  // never re-purchased.
  if (episode.torn_tail_bytes == 0 && resumed.persist.durable_barrier >= 0 &&
      resumed.replayed_microtasks < 0) {
    out->push_back({kName, "negative replayed-microtask accounting"});
  }
}

void CheckWalFrontier(const std::string& dir, std::vector<Violation>* out) {
  constexpr char kName[] = "wal-frontier-monotonic";
  const int64_t max_segment = persist::MaxWalSegment(dir);
  if (max_segment < 0) return;  // nothing durable (pruned or never written)
  int64_t first = -1;
  for (int64_t s = 0; s <= max_segment; ++s) {
    if (util::PathExists(dir + "/" + persist::WalSegmentName(s))) {
      first = s;
      break;
    }
  }
  if (first < 0) return;
  util::StatusOr<persist::WalReadResult> read = persist::ReadWal(dir, first);
  if (!read.ok()) {
    out->push_back({kName, "ReadWal: " + read.status().ToString()});
    return;
  }
  const persist::BarrierRecord* prev = nullptr;
  for (const persist::WalRecord& record : read.value().records) {
    const persist::BarrierRecord& b = record.barrier;
    if (prev != nullptr) {
      if (b.barrier <= prev->barrier) {
        out->push_back({kName, "barrier id regressed: " + I64(prev->barrier) +
                                   " -> " + I64(b.barrier)});
      }
      if (b.round < prev->round) {
        out->push_back({kName, "round regressed at barrier " + I64(b.barrier)});
      }
      if (b.now_seconds < prev->now_seconds) {
        out->push_back(
            {kName, "simulated clock regressed at barrier " + I64(b.barrier)});
      }
      if (b.next_arrival < prev->next_arrival) {
        out->push_back({kName, "arrival cursor regressed at barrier " +
                                   I64(b.barrier)});
      }
      if (b.done < prev->done) {
        out->push_back(
            {kName, "done counter regressed at barrier " + I64(b.barrier)});
      }
    }
    prev = &record.barrier;
  }
}

void CheckWireTrials(const Episode& episode, std::vector<Violation>* out) {
  constexpr char kName[] = "wire-reassembly-identity";
  if (episode.wire_trials <= 0 &&
      episode.wire_corruption == WireCorruption::kNone) {
    return;
  }
  const SimEnvironment env(episode.seed);
  // A fixed message census (every type, plus extra seeded repeats) framed
  // once; every trial re-delivers the same bytes at different split points.
  const std::vector<net::NetMessage> messages =
      SampleMessages(env.StreamSeed(Stream::kWire, 1000), 16);
  const FramedStream stream = FrameStream(messages);

  for (int64_t t = 0; t < episode.wire_trials; ++t) {
    std::string bytes = stream.bytes;
    if (t == 0 && episode.mutation == "wire-flip") {
      // Deliberate determinism bug: an undeclared bit flip in a clean
      // trial. The clean-trial expectations below must catch it.
      FramedStream mangled = stream;
      FlipBit(&mangled, mangled.frame_offsets.size() / 2,
              env.StreamSeed(Stream::kWire, 9999));
      bytes = mangled.bytes;
    }
    const Delivery d = DeliverByteStream(bytes, env.StreamSeed(Stream::kWire,
                                                               static_cast<uint64_t>(t)));
    if (d.corrupt || d.oversized) {
      out->push_back({kName, "clean trial " + I64(t) + " classified " +
                                 (d.corrupt ? "corrupt" : "oversized")});
      continue;
    }
    if (d.payloads != stream.payloads) {
      out->push_back({kName,
                      "clean trial " + I64(t) + " reassembly mismatch: got " +
                          I64(static_cast<int64_t>(d.payloads.size())) +
                          " payloads, want " +
                          I64(static_cast<int64_t>(stream.payloads.size()))});
      continue;
    }
    for (size_t i = 0; i < d.payloads.size(); ++i) {
      net::NetMessage decoded;
      if (!net::DecodeMessage(d.payloads[i], &decoded)) {
        out->push_back({kName, "clean trial " + I64(t) + " payload " +
                                   I64(static_cast<int64_t>(i)) +
                                   " no longer decodes"});
      }
    }
  }

  if (episode.wire_corruption == WireCorruption::kNone) return;
  util::Rng pick(env.StreamSeed(Stream::kWire, 2000));
  const size_t target = static_cast<size_t>(
      pick.UniformInt(0, static_cast<int64_t>(stream.frame_offsets.size()) - 1));
  FramedStream mangled = stream;
  switch (episode.wire_corruption) {
    case WireCorruption::kNone:
      break;
    case WireCorruption::kBitFlip: {
      FlipBit(&mangled, target, env.StreamSeed(Stream::kWire, 2001));
      const Delivery d =
          DeliverByteStream(mangled.bytes, env.StreamSeed(Stream::kWire, 2002));
      if (!d.corrupt || d.oversized) {
        out->push_back({kName, "bit flip in frame " +
                                   I64(static_cast<int64_t>(target)) +
                                   " not classified as corrupt"});
      }
      // Intact earlier frames are delivered; nothing at or past the
      // mangled frame ever is.
      std::vector<std::string> want(stream.payloads.begin(),
                                    stream.payloads.begin() +
                                        static_cast<int64_t>(target));
      if (d.payloads != want) {
        out->push_back({kName, "bit flip leaked payloads past frame " +
                                   I64(static_cast<int64_t>(target))});
      }
      break;
    }
    case WireCorruption::kTruncate: {
      TruncateTail(&mangled,
                   static_cast<size_t>(pick.UniformInt(1, 64)));
      const Delivery d =
          DeliverByteStream(mangled.bytes, env.StreamSeed(Stream::kWire, 2003));
      if (d.corrupt || d.oversized) {
        out->push_back(
            {kName, "truncated tail misclassified as a stream error"});
      }
      if (d.payloads != mangled.payloads) {
        out->push_back({kName, "truncation changed the surviving payloads"});
      }
      break;
    }
    case WireCorruption::kOversized: {
      InflateLength(&mangled, target);
      const Delivery d =
          DeliverByteStream(mangled.bytes, env.StreamSeed(Stream::kWire, 2004));
      if (!d.oversized || d.corrupt) {
        out->push_back({kName, "inflated length prefix in frame " +
                                   I64(static_cast<int64_t>(target)) +
                                   " not classified as oversized"});
      }
      std::vector<std::string> want(stream.payloads.begin(),
                                    stream.payloads.begin() +
                                        static_cast<int64_t>(target));
      if (d.payloads != want) {
        out->push_back({kName, "oversized frame leaked payloads past frame " +
                                   I64(static_cast<int64_t>(target))});
      }
      break;
    }
  }
}

void CheckVerifyPreservation(const Episode& episode,
                             std::vector<Violation>* out) {
  constexpr char kName[] = "verify-preservation";
  verify::CompCheckSpec spec;
  spec.label = "sim";
  spec.alpha = 0.05;
  spec.effect = 1.0;  // clean, well-separated pair: must pass its contract
  verify::VerifyOptions options;
  options.max_trials = 60;
  options.block_trials = 20;
  const uint64_t seed =
      SimEnvironment(episode.seed).StreamSeed(Stream::kVerify);

  exec::RunEngine::Options serial_opts;
  serial_opts.jobs = 1;
  exec::RunEngine serial(serial_opts);
  exec::RunEngine::Options wide_opts;
  wide_opts.jobs = 2;
  exec::RunEngine wide(wide_opts);

  const verify::GuaranteeReport a =
      verify::VerifyComparisonGuarantee(spec, options, &serial, seed);
  const verify::GuaranteeReport b =
      verify::VerifyComparisonGuarantee(spec, options, &wide, seed);

  if (a.trials != b.trials || a.errors != b.errors || a.ties != b.ties ||
      a.error_rate != b.error_rate || a.wilson_lo != b.wilson_lo ||
      a.wilson_hi != b.wilson_hi || a.mean_workload != b.mean_workload ||
      a.decisive != b.decisive || a.verdict != b.verdict) {
    out->push_back({kName,
                    "guarantee check differs between 1- and 2-worker engines "
                    "(trials " +
                        I64(a.trials) + " vs " + I64(b.trials) + ", errors " +
                        I64(a.errors) + " vs " + I64(b.errors) + ")"});
  }
  if (a.verdict != verify::Verdict::kPass) {
    out->push_back({kName, "clean crowd failed its own contract: error_rate=" +
                               std::to_string(a.error_rate) + " over " +
                               I64(a.trials) + " trials"});
  }
}

namespace {

struct ShardReplay {
  std::vector<shard::RoutedOutcome> outcomes;
  shard::RouterCounters counters;
  std::string table;  // shard::RenderMergedTable
};

// One router replay of the episode's trace over `shards` local shards;
// `kill_shard` >= 0 injects a death on that shard's first sub-batch. The
// cache is forced off: cache visibility depends on co-placement, so only
// uncached replays are comparable across shard counts.
ShardReplay RunShardReplay(const Episode& e, int64_t shards,
                           int64_t kill_shard) {
  const SimEnvironment env(e.seed);
  const std::unique_ptr<data::Dataset> dataset =
      MakeEpisodeDataset(e, env.StreamSeed(Stream::kFaults));

  judgment::ComparisonOptions comparison;
  comparison.alpha = e.alpha;
  comparison.budget = 500;
  std::vector<std::shared_ptr<core::TopKAlgorithm>> algorithms;
  for (int64_t a = 0; a < e.algorithms; ++a) {
    algorithms.push_back(
        baselines::MakeAlgorithm(kAlgorithmRotation[a % 4], comparison));
  }

  std::vector<shard::RoutedQuery> queries(static_cast<size_t>(e.queries));
  for (int64_t q = 0; q < e.queries; ++q) {
    shard::RoutedQuery& routed = queries[static_cast<size_t>(q)];
    routed.global_id = q;
    routed.dataset = "sim_ladder";
    routed.algo = kAlgorithmRotation[q % e.algorithms % 4];
    routed.k = e.k;
    routed.alpha = e.alpha;
    routed.universe = 0;
    routed.dataset_ptr = dataset.get();
    routed.algorithm = algorithms[static_cast<size_t>(q % e.algorithms)];
  }

  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (int64_t s = 0; s < shards; ++s) {
    shard::LocalShardBackend::Options backend_options;
    backend_options.seed = env.StreamSeed(Stream::kReplay);
    backend_options.schedule.crowd_workers = e.crowd_workers;
    backend_options.schedule.per_pair_batch = e.per_pair_batch;
    backend_options.schedule.deadline_seconds = e.deadline_seconds;
    backend_options.schedule.abandon_probability = e.abandon_probability;
    backend_options.schedule.no_show_probability =
        fault::NoShowProbability(e.FaultPlanFor());
    backend_options.schedule.max_attempts = e.max_attempts;
    backend_options.max_inflight = e.max_inflight;
    backend_options.jobs = 1;
    if (s == kill_shard) backend_options.fail_at_batch = 1;
    backends.push_back(
        std::make_unique<shard::LocalShardBackend>(backend_options));
  }

  shard::ShardRouter router(shard::RouterOptions(), std::move(backends));

  ShardReplay replay;
  replay.outcomes = router.RouteBatch(std::move(queries));
  replay.counters = router.counters();
  replay.table = shard::RenderMergedTable(replay.outcomes);
  return replay;
}

}  // namespace

void CheckShardScatter(const Episode& episode, std::vector<Violation>* out) {
  if (episode.shards < 2 || episode.queries < 1) return;

  const ShardReplay one = RunShardReplay(episode, 1, /*kill_shard=*/-1);
  const ShardReplay many =
      RunShardReplay(episode, episode.shards, /*kill_shard=*/-1);
  CompareBlobs("shard-scatter-identity",
               "shards=1 vs shards=" + I64(episode.shards), "merged table",
               one.table, many.table, out);

  if (!episode.shard_kill) return;
  constexpr char kName[] = "shard-failover-completes";
  // Kill the first query's primary so the injected death is guaranteed to
  // cost a sub-batch in wave 1 and exercise re-dispatch.
  const shard::RoutedQuery& first = many.outcomes.front().query;
  const int64_t victim =
      shard::RankShards(
          shard::PlacementKey{first.universe, first.dataset, first.algo},
          episode.shards)
          .front();
  const ShardReplay killed = RunShardReplay(episode, episode.shards, victim);

  CompareBlobs(kName, "healthy vs shard " + I64(victim) + " killed",
               "merged table", many.table, killed.table, out);
  int64_t repurchased = 0;
  for (const shard::RoutedOutcome& o : killed.outcomes) {
    if (o.shard_id < 0) {
      out->push_back({kName, "query " + I64(o.query.global_id) +
                                 " never executed: " +
                                 o.result.status.ToString()});
    } else if (o.shard_id == victim) {
      out->push_back({kName, "query " + I64(o.query.global_id) +
                                 " reported by the dead shard"});
    }
    if (o.redispatches > 0) repurchased += o.result.total_microtasks;
  }
  const shard::RouterCounters& c = killed.counters;
  if (c.shard_failures < 1 || c.redispatched_queries < 1) {
    out->push_back({kName, "injected death never fired (failures=" +
                               I64(c.shard_failures) + ", redispatched=" +
                               I64(c.redispatched_queries) + ")"});
  }
  if (c.exhausted_queries != 0) {
    out->push_back({kName, I64(c.exhausted_queries) +
                               " queries exhausted their re-dispatch budget "
                               "with healthy shards remaining"});
  }
  if (c.redispatched_queries > episode.queries * 2) {
    out->push_back({kName, "re-dispatches over budget: " +
                               I64(c.redispatched_queries) + " for " +
                               I64(episode.queries) + " queries"});
  }
  if (c.repurchased_microtasks != repurchased) {
    out->push_back({kName, "re-purchase accounting mismatch: counter " +
                               I64(c.repurchased_microtasks) +
                               " vs outcomes " + I64(repurchased)});
  }
}

}  // namespace crowdtopk::sim
