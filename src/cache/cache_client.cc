#include "cache/cache_client.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace crowdtopk::cache {

CacheClient::CacheClient(const JudgmentCache* cache, int64_t universe,
                         std::vector<crowd::ItemId> universe_ids)
    : cache_(cache),
      universe_(universe),
      universe_ids_(std::move(universe_ids)) {
  CROWDTOPK_CHECK(cache != nullptr);
}

crowd::ItemId CacheClient::Translate(crowd::ItemId local) const {
  if (universe_ids_.empty()) return local;
  CROWDTOPK_CHECK_GE(local, 0);
  CROWDTOPK_CHECK_LT(static_cast<size_t>(local), universe_ids_.size());
  return universe_ids_[local];
}

LookupResult CacheClient::Lookup(crowd::ItemId i, crowd::ItemId j,
                                 double alpha, int64_t budget,
                                 JudgmentKind kind) {
  // Translation preserves the (i, j) order, so the entry the cache orients
  // for the translated pair is already oriented for the local pair.
  const LookupResult result =
      cache_->Lookup(universe_, Translate(i), Translate(j), alpha, budget,
                     kind);
  switch (result.status) {
    case LookupStatus::kMiss:
      ++stats_.misses;
      break;
    case LookupStatus::kHit:
      ++stats_.hits;
      stats_.seeded_samples += result.entry.count;
      break;
    case LookupStatus::kTopUp:
      ++stats_.topups;
      stats_.seeded_samples += result.entry.count;
      break;
    case LookupStatus::kInferred:
      ++stats_.inferred;
      break;
  }
  return result;
}

void CacheClient::Record(crowd::ItemId i, crowd::ItemId j, JudgmentKind kind,
                         const CachedComparison& entry) {
  const crowd::ItemId a = Translate(i);
  const crowd::ItemId b = Translate(j);
  CROWDTOPK_CHECK_NE(a, b);
  CROWDTOPK_CHECK_GE(entry.count, 1);
  // Staging nothing keeps a zero-capacity cache's barrier digests — and so
  // its WAL — identical to running without a cache.
  if (cache_->options().capacity == 0) return;
  ExportedEntry staged;
  staged.universe = universe_;
  staged.kind = static_cast<int32_t>(kind);
  staged.lo = std::min(a, b);
  staged.hi = std::max(a, b);
  staged.entry = a < b ? entry : Flip(entry);
  staged_.push_back(staged);
}

std::vector<ExportedEntry> CacheClient::TakeStaged() {
  return std::exchange(staged_, {});
}

}  // namespace crowdtopk::cache
