// ComparisonCache: persistent, reusable judgment state per item pair.
//
// "All human preference feedback can be stored and the results of
// comparisons are always reusable" (Section 5.3): the cache keys sessions by
// the unordered item pair, so re-comparing a pair during sorting costs
// nothing if it was already resolved during partitioning, and partially
// funded comparisons resume instead of restarting. Sessions live in place
// in a node-based map and point at the cache's own options, so the cache
// can be neither copied nor moved.
//
// When the platform carries a cache::CacheClient (the cross-query judgment
// cache, src/cache), the per-query cache additionally consults the shared
// store on first touch of a pair — seeding or finishing the session from a
// memoised verdict — and publishes its own finished sessions back on
// destruction. Algorithms are oblivious: they see only ComparisonSessions.

#ifndef CROWDTOPK_JUDGMENT_CACHE_H_
#define CROWDTOPK_JUDGMENT_CACHE_H_

#include <cstdint>
#include <unordered_map>

#include "cache/cache_client.h"
#include "crowd/platform.h"
#include "crowd/types.h"
#include "judgment/comparison.h"
#include "telemetry/recorder.h"

namespace crowdtopk::judgment {

class ComparisonCache {
 public:
  // When `platform` is non-null and carries a cache::CacheClient, sessions
  // are seeded from / published to the shared cross-query cache. The client
  // must outlive this object (the serving layer guarantees both live for the
  // whole query).
  explicit ComparisonCache(const ComparisonOptions& options,
                           crowd::CrowdPlatform* platform = nullptr);

  // Publishes every finished, self-funded session to the shared cache (a
  // no-op without one), in canonical key order for determinism.
  ~ComparisonCache();

  ComparisonCache(const ComparisonCache&) = delete;
  ComparisonCache& operator=(const ComparisonCache&) = delete;

  const ComparisonOptions& options() const { return options_; }

  // The session for {i, j} in canonical orientation (smaller id on the
  // left), creating it on first use. The pointer stays valid as long as
  // the cache lives.
  ComparisonSession* GetSession(ItemId i, ItemId j);

  // The session for {i, j} if one exists, else nullptr. Never creates.
  const ComparisonSession* FindSession(ItemId i, ItemId j) const;

  // Runs COMP(i, j) to completion (resuming any prior funding), accounting
  // one batch round per purchase. The outcome is oriented for (i, j): a
  // kLeftWins return means i beats j. Already-finished pairs cost nothing.
  ComparisonOutcome Compare(ItemId i, ItemId j,
                            crowd::CrowdPlatform* platform);

  // Estimated preference mean oriented for (i, j): positive means i is
  // preferred. Returns 0 if the pair has never been sampled.
  double EstimatedMean(ItemId i, ItemId j) const;

  // Estimated stddev of one judgment of the pair (0 if never sampled).
  double EstimatedStdDev(ItemId i, ItemId j) const;

  // Workload already spent on the pair.
  int64_t Workload(ItemId i, ItemId j) const;

  // Best guess of "i beats j": the confirmed outcome when finished with a
  // decision, otherwise the sign of the estimated mean (random questions are
  // avoided: an unsampled pair reports false deterministically).
  bool LikelyBetter(ItemId i, ItemId j) const;

  // Number of distinct pairs ever touched.
  int64_t num_pairs() const { return static_cast<int64_t>(sessions_.size()); }

 private:
  static uint64_t Key(ItemId lo, ItemId hi) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 32) |
           static_cast<uint32_t>(hi);
  }

  // Consults the shared cache for a freshly created session (hit / top-up /
  // inferred verdict); no-op when no client is attached.
  void ConsultSharedCache(ComparisonSession* session);

  ComparisonOptions options_;
  std::unordered_map<uint64_t, ComparisonSession> sessions_;
  cache::CacheClient* shared_ = nullptr;      // optional, not owned
  telemetry::TraceRecorder* recorder_ = nullptr;  // optional, not owned
};

}  // namespace crowdtopk::judgment

#endif  // CROWDTOPK_JUDGMENT_CACHE_H_
