// ChaosSchedule: seeded episode scripts composing the existing fault knobs.
//
// One Episode is the complete, self-describing configuration of one
// simulation run: workload shape (ladder dataset, query mix, arrivals),
// crowd schedule, worker-quality fault plan (src/fault), cache pressure
// (src/cache), durability chaos (src/persist halt points, torn WAL tails),
// wire fuzzing against net::FrameReader, and which invariant families the
// harness checks. DeriveEpisode(seed) builds it as a pure function of the
// seed via util::Rng::Split streams, so a failing seed IS the repro; the
// key=value spec round-trip (ToSpec / EpisodeFromSpec) lets the shrinker
// hand back a minimal episode as a copy-pasteable replay command.
//
// Sizes are deliberately small (<= 16 items, <= 6 queries): one episode
// runs the full serving stack up to ~8 times (jobs pairs, cache ablation,
// crash/resume, warm restart), and the CI sweep runs 64+ episodes under
// TSAN too.

#ifndef CROWDTOPK_SIM_CHAOS_H_
#define CROWDTOPK_SIM_CHAOS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fault/injector.h"
#include "util/status.h"

namespace crowdtopk::sim {

// How one wire-fuzz trial mangles the framed byte stream.
enum class WireCorruption : int32_t {
  kNone = 0,       // clean stream: must reassemble bit-identically
  kBitFlip = 1,    // flip one payload/CRC bit -> FrameReader kCorrupt
  kTruncate = 2,   // drop the stream's tail -> kNeedMore forever
  kOversized = 3,  // inflate a length prefix past the cap -> kOversized
};

// Registry names (baselines/registry.h) in the order Episode::algorithms
// takes them.
inline constexpr const char* kAlgorithmRotation[] = {"spr", "heapsort",
                                                     "quickselect", "tourtree"};

struct Episode {
  // The master seed this episode was derived from (0 when hand-built).
  uint64_t seed = 0;

  // ----- workload --------------------------------------------------------
  int64_t items = 10;      // ladder dataset size
  double gap = 1.0;        // true-score gap between adjacent items
  double noise = 1.0;      // preference noise stddev
  int64_t queries = 4;     // trace length
  int64_t k = 3;           // top-k per query
  double alpha = 0.05;     // per-comparison significance
  int64_t algorithms = 2;  // leading entries of kAlgorithmRotation used
                           // round-robin per query
  double arrival_rate = 0.05;  // Poisson lambda (simulated seconds)

  // ----- crowd schedule --------------------------------------------------
  int64_t crowd_workers = 16;
  int64_t per_pair_batch = 4;
  double deadline_seconds = 60.0;
  double abandon_probability = 0.0;
  int64_t max_attempts = 4;
  int64_t max_inflight = 4;
  int64_t max_queue = -1;

  // ----- worker-quality faults (src/fault) -------------------------------
  double spammer_fraction = 0.0;
  double adversary_fraction = 0.0;
  double lazy_fraction = 0.0;
  double duplicate_fraction = 0.0;
  double no_show_fraction = 0.0;

  // ----- cache pressure (src/cache) --------------------------------------
  bool cache_enabled = false;
  int64_t cache_capacity = -1;  // < 0 unbounded; small values force drops
  bool transitivity = false;

  // ----- durability chaos (src/persist) ----------------------------------
  bool persist_enabled = false;
  int64_t snapshot_every = 4;
  int64_t wal_segment_bytes = 1 << 12;  // tiny: forces multi-segment logs
  // Stop persisting after this barrier (in-process crash image); < 0 = run
  // to completion before the resume generation starts.
  int64_t halt_after_barrier = -1;
  // Cut this many bytes off the newest WAL segment before resuming.
  int64_t torn_tail_bytes = 0;

  // ----- determinism probes ---------------------------------------------
  int64_t jobs_a = 1;  // reference worker count
  int64_t jobs_b = 4;  // must be bit-identical to jobs_a

  // ----- wire fuzzing (net::FrameReader) ---------------------------------
  int64_t wire_trials = 2;  // clean split-point trials per episode
  WireCorruption wire_corruption = WireCorruption::kNone;

  // ----- shard scatter (src/shard) ---------------------------------------
  // >= 2 replays the trace through a ShardRouter over this many local
  // shards and checks the merged table against a 1-shard run; <= 1 off.
  int64_t shards = 0;
  // Kill the first query's primary shard on its first sub-batch; every
  // query must still complete, byte-identically, via failover.
  bool shard_kill = false;

  // ----- invariant families ---------------------------------------------
  bool check_verify = false;  // Monte-Carlo guarantee check (expensive)

  // ----- mutation hook (never derived from the seed) ---------------------
  // Deliberate determinism bugs for the harness acceptance test
  // (docs/SIMULATION.md): "" none, "seed-drift" perturbs the jobs_b replay
  // seed, "cache-leak" gives the capacity-0 control run one cache slot,
  // "wire-flip" flips a bit in a clean wire trial.
  std::string mutation;

  fault::FaultPlan FaultPlanFor() const;
  bool any_value_faults() const;
};

// Derives the episode for `seed` — a pure function (same seed, same
// episode, any machine). Fault, chaos, and pressure knobs are sampled so
// roughly half the episodes stress each subsystem.
Episode DeriveEpisode(uint64_t seed);

// Compact, complete, order-stable "key=value,..." serialisation; the
// shrink/replay currency. EpisodeFromSpec(ToSpec(e)) == e for every field.
std::string ToSpec(const Episode& episode);
util::StatusOr<Episode> EpisodeFromSpec(const std::string& spec);

// A ladder dataset whose judgments pass through a FaultInjectionOracle
// while ground truth (precision scoring) stays honest. Plain data::Dataset
// when the episode has no value faults.
std::unique_ptr<data::Dataset> MakeEpisodeDataset(const Episode& episode,
                                                  uint64_t fault_seed);

}  // namespace crowdtopk::sim

#endif  // CROWDTOPK_SIM_CHAOS_H_
