// JudgmentCache: the cross-query judgment cache.
//
// The paper's SPR reuses judgments *within* one ranking pass ("the results
// of comparisons are always reusable", Section 5.3); this module extends the
// reuse across queries. A completed COMP(o_i, o_j) is memoised in summarised
// form — verdict, preference mean, Welford M2, sample count, and the nominal
// error bound alpha it was decided at — keyed by the canonical unordered
// pair. A later query asking about the same pair is served:
//
//   * a HIT when the cached confidence level 1 - alpha_cached meets or
//     exceeds the requesting query's 1 - alpha (alpha_cached <= alpha), or,
//     for a budget-exhausted tie, when the cached funding already covers the
//     requester's per-pair budget B;
//   * a TOP-UP otherwise: the requester seeds its ComparisonSession with the
//     cached bag summary and continues buying from the cached sample count,
//     exactly per COMP's progressive-sampling contract (Algorithm 1 keeps
//     purchasing eta-batches until its own interval excludes 0);
//   * optionally (off by default) an INFERRED verdict from transitivity:
//     cached o_i > o_r and o_r > o_j compose to o_i > o_j. Hui & Berberich
//     (CSCW'17) measure crowd preference judgments as overwhelmingly
//     transitive, which is what justifies serving composed verdicts.
//     Composition rule: each cached verdict is wrong with probability at
//     most its alpha, so by the union bound the composed verdict is wrong
//     with probability at most alpha_1 + alpha_2; an inferred answer is
//     served only when alpha_1 + alpha_2 <= the requester's alpha. Only
//     directly-judged (never themselves inferred) single-hop chains are
//     composed, so inference error never compounds.
//
// One writer (the src/exec determinism contract). Each query stages its
// completed comparisons in its own CacheClient (cache_client.h). Only the
// serving layer's service thread writes the cache: at a quiescence barrier
// (QueryService::SealBarrier commits every live client's staged inserts in
// query-id order) or between Replay calls (QueryService::RestoreCache).
// Lookups may run concurrently with each other, never with a write, so the
// map takes no lock: a driver resumes only through its scheduler record's
// wake semaphore or its thread start, both of which the service thread
// releases after the barrier's commits, so they precede the next lookups.
// Every driver therefore observes a cache that is a pure function
// of (options, seed, trace), and the replay stays byte-identical for any
// CROWDTOPK_JOBS value. Two queries that race on the same cold pair within
// one global round both buy it (the price of determinism); the merge rule
// below resolves their inserts identically regardless of thread timing.
// Other owners (the shard router's gossip merge, tests) use a cache from
// one thread.
//
// Entries live in per-universe namespaces: queries only share judgments when
// their CacheClients declare the same universe (same oracle) and translate
// their local item ids into that universe's id space (cache_client.h).

#ifndef CROWDTOPK_CACHE_JUDGMENT_CACHE_H_
#define CROWDTOPK_CACHE_JUDGMENT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crowd/types.h"

namespace crowdtopk::cache {

// Which judgment stream funded an entry. Preference bags (Student / Stein /
// anytime estimators) and binary-vote bags (Hoeffding) are different sample
// spaces and never mix.
enum class JudgmentKind : int32_t {
  kPreference = 0,
  kBinary = 1,
};

struct CacheOptions {
  // Master switch for layers that construct the cache conditionally
  // (serve::ServeOptions, tools). The cache object itself is always live.
  bool enabled = false;
  // Maximum distinct pairs stored; < 0 = unbounded. 0 stores nothing and
  // hits nothing, making an attached cache byte-identical to no cache.
  // When full, new pairs are dropped (deterministic, no eviction).
  int64_t capacity = -1;
  // Serve single-hop transitively inferred verdicts (off by default).
  bool transitivity = false;
};

// One memoised comparison, oriented so that a positive mean and kLeftWins
// favour the first item of the (i, j) order it is handed over with.
struct CachedComparison {
  crowd::ComparisonOutcome outcome = crowd::ComparisonOutcome::kTie;
  // True for a win/loss verdict; false for a budget-exhausted tie.
  bool decisive = false;
  // Nominal error bound of the verdict: the alpha of the ComparisonOptions
  // that decided it, or the union-bound sum for an inferred verdict.
  double alpha = 1.0;
  // Bag summary (count, mean, Welford M2) — restoring these into a fresh
  // RunningStats reproduces the donor session's accumulator bit-for-bit.
  // count == 0 for inferred verdicts (no samples to seed); every stored
  // entry has count >= 1.
  int64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  // Stein's frozen first-stage variance estimate (comparison.h).
  int64_t first_stage_count = 0;
  double first_stage_sd = 0.0;
};

enum class LookupStatus {
  kMiss,      // nothing usable cached
  kHit,       // cached confidence covers the request; no purchases needed
  kTopUp,     // cached bag seeds the session; buy the remainder
  kInferred,  // transitive composition; verdict only, no bag
};

struct LookupResult {
  LookupStatus status = LookupStatus::kMiss;
  // Valid unless kMiss; oriented for the (i, j) order passed to Lookup.
  CachedComparison entry;
};

// Monotone counters. JudgmentCache::stats() fills the commit-side ones and
// leaves the lookup-side ones (lookups, hits, topups, inferred, misses,
// seeded_samples) 0: CacheClient counts those per query, and
// QueryService::cache_stats() sums its retired clients' counts into them.
struct CacheStats {
  int64_t lookups = 0;
  int64_t hits = 0;
  int64_t topups = 0;
  int64_t inferred = 0;
  int64_t misses = 0;
  int64_t inserts = 0;            // new pairs committed
  int64_t upgrades = 0;           // existing pairs replaced by better entries
  int64_t dropped_capacity = 0;   // inserts refused by the capacity bound
  int64_t seeded_samples = 0;     // samples served into hit/top-up seeds
  int64_t pairs = 0;              // distinct pairs currently stored
  int64_t restored = 0;           // pairs restored from a snapshot/warm start
  // Capacity drops broken down by universe (ascending universe id), so a
  // multi-tenant deployment can see *whose* inserts the bound refused; the
  // aggregate dropped_capacity is their sum. Exported as
  // cache/universe<id>/dropped telemetry counters by the serving layer.
  std::vector<std::pair<int64_t, int64_t>> dropped_by_universe;
};

// One entry in canonical orientation (lo < hi): what a CacheClient stages,
// JudgmentCache::Commit applies, Export dumps and RestoreEntries restores —
// the on-disk unit of the durability layer's snapshots (src/persist).
struct ExportedEntry {
  int64_t universe = 0;
  int32_t kind = 0;
  crowd::ItemId lo = 0;
  crowd::ItemId hi = 0;
  CachedComparison entry;
};

// The same comparison with its operands swapped: verdict reversed, mean
// negated.
CachedComparison Flip(CachedComparison entry);

class JudgmentCache {
 public:
  explicit JudgmentCache(const CacheOptions& options);

  JudgmentCache(const JudgmentCache&) = delete;
  JudgmentCache& operator=(const JudgmentCache&) = delete;

  const CacheOptions& options() const { return options_; }

  // Looks up the pair (i, j) of `universe` for a query at significance
  // `alpha` and per-pair budget `budget`. The returned entry is oriented for
  // (i, j) as passed (mean sign and outcome flipped from canonical storage
  // when needed). Counts nothing: CacheClient counts its own lookups.
  LookupResult Lookup(int64_t universe, crowd::ItemId i, crowd::ItemId j,
                      double alpha, int64_t budget, JudgmentKind kind) const;

  // Applies staged inserts (CacheClient::TakeStaged) in order; new pairs
  // count as inserts. An existing entry is only replaced by a strictly
  // better one (decisive beats tie, then lower alpha, then higher count),
  // so commit order between equal entries never changes the map.
  void Commit(const std::vector<ExportedEntry>& entries);

  // Deterministic dump of every entry, sorted by (universe, pair, kind):
  // the snapshot image.
  std::vector<ExportedEntry> Export() const;

  // Applies previously exported entries, typically into a fresh cache — the
  // warm-restart and gossip path. New pairs count as restored rather than
  // inserts; the merge rule and the capacity bound are Commit's.
  void RestoreEntries(const std::vector<ExportedEntry>& entries);

  CacheStats stats() const;
  int64_t num_pairs() const { return static_cast<int64_t>(entries_.size()); }

 private:
  struct Key {
    int64_t universe = 0;
    uint64_t pair = 0;  // canonical (lo << 32) | hi
    int32_t kind = 0;
    bool operator==(const Key& other) const {
      return universe == other.universe && pair == other.pair &&
             kind == other.kind;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  // Neighbours with decisive entries, per (universe, item, kind); sorted.
  struct AdjKey {
    int64_t universe = 0;
    crowd::ItemId item = 0;
    int32_t kind = 0;
    bool operator==(const AdjKey& other) const {
      return universe == other.universe && item == other.item &&
             kind == other.kind;
    }
  };
  struct AdjKeyHash {
    size_t operator()(const AdjKey& key) const;
  };

  // Merges canonical-orientation entries into the map (and the adjacency
  // index when decisive), counting new pairs into `*added`.
  void Apply(const std::vector<ExportedEntry>& entries, int64_t* added);
  // True when `incoming` should replace `existing`.
  static bool Better(const CachedComparison& incoming,
                     const CachedComparison& existing);
  // Single-hop transitive inference for canonical pair (lo, hi); returns a
  // canonical-orientation entry on success.
  bool TryInfer(int64_t universe, crowd::ItemId lo, crowd::ItemId hi,
                double alpha, JudgmentKind kind, CachedComparison* out) const;
  // Fetches the committed canonical entry for (a, b), oriented for (a, b).
  bool FindOriented(int64_t universe, crowd::ItemId a, crowd::ItemId b,
                    JudgmentKind kind, CachedComparison* out) const;

  const CacheOptions options_;
  std::unordered_map<Key, CachedComparison, KeyHash> entries_;
  std::unordered_map<AdjKey, std::vector<crowd::ItemId>, AdjKeyHash>
      adjacency_;

  int64_t inserts_ = 0;
  int64_t upgrades_ = 0;
  int64_t restored_ = 0;
  // Capacity drops per universe; CacheStats::dropped_capacity is their sum.
  std::map<int64_t, int64_t> dropped_by_universe_;
};

}  // namespace crowdtopk::cache

#endif  // CROWDTOPK_CACHE_JUDGMENT_CACHE_H_
