#include "cache/judgment_cache.h"

#include <algorithm>

#include "util/check.h"
#include "util/random.h"

namespace crowdtopk::cache {
namespace {

using crowd::ComparisonOutcome;
using crowd::ItemId;

uint64_t CanonicalPair(ItemId lo, ItemId hi) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 32) |
         static_cast<uint32_t>(hi);
}

uint64_t MixHash(uint64_t x) {
  // splitmix64 finalizer — same mixer the seeding layer uses.
  uint64_t state = x;
  return util::SplitMix64(&state);
}

}  // namespace

CachedComparison Flip(CachedComparison entry) {
  entry.outcome = crowd::Reverse(entry.outcome);
  entry.mean = -entry.mean;
  return entry;
}

size_t JudgmentCache::KeyHash::operator()(const Key& key) const {
  return static_cast<size_t>(
      MixHash(MixHash(static_cast<uint64_t>(key.universe)) ^ key.pair ^
              (static_cast<uint64_t>(key.kind) << 62)));
}

size_t JudgmentCache::AdjKeyHash::operator()(const AdjKey& key) const {
  return static_cast<size_t>(
      MixHash((static_cast<uint64_t>(key.universe) << 34) ^
              (static_cast<uint64_t>(static_cast<uint32_t>(key.item)) << 2) ^
              static_cast<uint64_t>(key.kind)));
}

JudgmentCache::JudgmentCache(const CacheOptions& options) : options_(options) {}

bool JudgmentCache::Better(const CachedComparison& incoming,
                           const CachedComparison& existing) {
  if (incoming.decisive != existing.decisive) return incoming.decisive;
  if (incoming.alpha != existing.alpha) return incoming.alpha < existing.alpha;
  return incoming.count > existing.count;
}

LookupResult JudgmentCache::Lookup(int64_t universe, ItemId i, ItemId j,
                                   double alpha, int64_t budget,
                                   JudgmentKind kind) const {
  CROWDTOPK_CHECK_NE(i, j);
  LookupResult result;
  const ItemId lo = std::min(i, j);
  const ItemId hi = std::max(i, j);
  const auto it = entries_.find(
      Key{universe, CanonicalPair(lo, hi), static_cast<int32_t>(kind)});
  if (it != entries_.end()) {
    const CachedComparison& canonical = it->second;
    result.entry = i == lo ? canonical : Flip(canonical);
    const bool confidence_covered =
        canonical.decisive && canonical.alpha <= alpha;
    // A budget-exhausted tie answers queries whose own budget the cached
    // funding already covers: they too would have run out undecided.
    const bool tie_covered = !canonical.decisive && canonical.count >= budget;
    result.status = (confidence_covered || tie_covered) ? LookupStatus::kHit
                                                        : LookupStatus::kTopUp;
    return result;
  }
  CachedComparison inferred;
  if (options_.transitivity &&
      TryInfer(universe, lo, hi, alpha, kind, &inferred)) {
    result.status = LookupStatus::kInferred;
    result.entry = i == lo ? inferred : Flip(inferred);
  }
  return result;
}

bool JudgmentCache::FindOriented(int64_t universe, ItemId a, ItemId b,
                                 JudgmentKind kind,
                                 CachedComparison* out) const {
  const ItemId lo = std::min(a, b);
  const ItemId hi = std::max(a, b);
  const auto it = entries_.find(
      Key{universe, CanonicalPair(lo, hi), static_cast<int32_t>(kind)});
  if (it == entries_.end()) return false;
  *out = a == lo ? it->second : Flip(it->second);
  return true;
}

bool JudgmentCache::TryInfer(int64_t universe, ItemId lo, ItemId hi,
                             double alpha, JudgmentKind kind,
                             CachedComparison* out) const {
  // Candidate middles: items with decisive cached verdicts against BOTH
  // endpoints. Neighbour lists are sorted, so the intersection — and with it
  // the chosen chain — is deterministic.
  const auto it_lo =
      adjacency_.find(AdjKey{universe, lo, static_cast<int32_t>(kind)});
  const auto it_hi =
      adjacency_.find(AdjKey{universe, hi, static_cast<int32_t>(kind)});
  if (it_lo == adjacency_.end() || it_hi == adjacency_.end()) return false;
  std::vector<ItemId> middles;
  std::set_intersection(it_lo->second.begin(), it_lo->second.end(),
                        it_hi->second.begin(), it_hi->second.end(),
                        std::back_inserter(middles));
  bool found = false;
  double best_alpha = 0.0;
  ComparisonOutcome best_outcome = ComparisonOutcome::kTie;
  for (const ItemId r : middles) {
    if (r == lo || r == hi) continue;
    CachedComparison first;   // oriented (lo, r)
    CachedComparison second;  // oriented (r, hi)
    if (!FindOriented(universe, lo, r, kind, &first)) continue;
    if (!FindOriented(universe, r, hi, kind, &second)) continue;
    if (!first.decisive || !second.decisive) continue;
    // The verdicts only chain when they point the same way through r:
    // lo > r > hi infers lo > hi; lo < r < hi infers lo < hi.
    if (first.outcome != second.outcome) continue;
    // Union bound: both links hold with probability >= 1 - (a1 + a2).
    const double combined = first.alpha + second.alpha;
    if (combined > alpha) continue;
    // Keep the tightest chain; middles ascend, so ties keep the smallest r.
    if (!found || combined < best_alpha) {
      found = true;
      best_alpha = combined;
      best_outcome = first.outcome;
    }
  }
  if (!found) return false;
  *out = CachedComparison{};
  out->outcome = best_outcome;
  out->decisive = true;
  out->alpha = best_alpha;
  // count stays 0: an inferred verdict carries no samples to seed and no
  // strength estimate, and is never re-published (comparison-cache side
  // publishes only sessions that bought real samples).
  return true;
}

void JudgmentCache::Commit(const std::vector<ExportedEntry>& entries) {
  Apply(entries, &inserts_);
}

void JudgmentCache::RestoreEntries(const std::vector<ExportedEntry>& entries) {
  Apply(entries, &restored_);
}

void JudgmentCache::Apply(const std::vector<ExportedEntry>& entries,
                          int64_t* added) {
  if (options_.capacity == 0) return;
  for (const ExportedEntry& e : entries) {
    CROWDTOPK_CHECK(e.lo < e.hi);
    const Key key{e.universe, CanonicalPair(e.lo, e.hi), e.kind};
    bool adjacency_dirty = false;
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (options_.capacity >= 0 && num_pairs() >= options_.capacity) {
        ++dropped_by_universe_[e.universe];
        continue;
      }
      entries_.emplace(key, e.entry);
      ++*added;
      adjacency_dirty = e.entry.decisive;
    } else if (Better(e.entry, it->second)) {
      adjacency_dirty = e.entry.decisive && !it->second.decisive;
      it->second = e.entry;
      ++upgrades_;
    }
    if (!adjacency_dirty || !options_.transitivity) continue;
    for (const auto& [item, other] : {std::pair(e.lo, e.hi),
                                      std::pair(e.hi, e.lo)}) {
      std::vector<ItemId>& neighbours =
          adjacency_[AdjKey{e.universe, item, e.kind}];
      const auto pos =
          std::lower_bound(neighbours.begin(), neighbours.end(), other);
      if (pos == neighbours.end() || *pos != other) {
        neighbours.insert(pos, other);
      }
    }
  }
}

std::vector<ExportedEntry> JudgmentCache::Export() const {
  std::vector<ExportedEntry> exported;
  exported.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    ExportedEntry e;
    e.universe = key.universe;
    e.kind = key.kind;
    e.lo = static_cast<ItemId>(key.pair >> 32);
    e.hi = static_cast<ItemId>(key.pair & 0xffffffffu);
    e.entry = entry;
    exported.push_back(e);
  }
  std::sort(exported.begin(), exported.end(),
            [](const ExportedEntry& a, const ExportedEntry& b) {
              if (a.universe != b.universe) return a.universe < b.universe;
              if (a.lo != b.lo) return a.lo < b.lo;
              if (a.hi != b.hi) return a.hi < b.hi;
              return a.kind < b.kind;
            });
  return exported;
}

CacheStats JudgmentCache::stats() const {
  CacheStats stats;
  stats.inserts = inserts_;
  stats.upgrades = upgrades_;
  stats.pairs = num_pairs();
  stats.restored = restored_;
  stats.dropped_by_universe.assign(dropped_by_universe_.begin(),
                                   dropped_by_universe_.end());
  for (const auto& [universe, dropped] : dropped_by_universe_) {
    stats.dropped_capacity += dropped;
  }
  return stats;
}

}  // namespace crowdtopk::cache
