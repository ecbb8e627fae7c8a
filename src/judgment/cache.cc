#include "judgment/cache.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace crowdtopk::judgment {

namespace {

cache::JudgmentKind KindFor(const ComparisonOptions& options) {
  return options.estimator == Estimator::kHoeffding
             ? cache::JudgmentKind::kBinary
             : cache::JudgmentKind::kPreference;
}

}  // namespace

ComparisonCache::ComparisonCache(const ComparisonOptions& options,
                                 crowd::CrowdPlatform* platform)
    : options_(options) {
  if (platform != nullptr) {
    shared_ = platform->cache_client();
    recorder_ = platform->recorder();
  }
}

ComparisonCache::~ComparisonCache() {
  if (shared_ == nullptr) return;
  // Publish finished sessions this query funded itself (workload beyond the
  // seed): pure hits and inferred verdicts carry nothing new. Keys are
  // iterated in sorted order so the publication sequence — and therefore the
  // client's staging order — is independent of hash-map iteration.
  std::vector<uint64_t> keys;
  keys.reserve(sessions_.size());
  for (const auto& [key, session] : sessions_) {
    if (session.Finished() && session.workload() > session.seeded_count()) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  const cache::JudgmentKind kind = KindFor(options_);
  for (uint64_t key : keys) {
    const ComparisonSession& session = sessions_.at(key);
    cache::CachedComparison entry;
    entry.outcome = session.outcome();
    entry.decisive = session.outcome() != ComparisonOutcome::kTie;
    entry.alpha = options_.alpha;
    entry.count = session.workload();
    entry.mean = session.Mean();
    entry.m2 = session.M2();
    entry.first_stage_count = session.first_stage_count();
    entry.first_stage_sd = session.first_stage_sd();
    shared_->Record(session.left(), session.right(), kind, entry);
  }
}

void ComparisonCache::ConsultSharedCache(ComparisonSession* session) {
  if (shared_ == nullptr) return;
  const cache::LookupResult result =
      shared_->Lookup(session->left(), session->right(), options_.alpha,
                      options_.budget, KindFor(options_));
  switch (result.status) {
    case cache::LookupStatus::kMiss:
      return;
    case cache::LookupStatus::kHit:
      if (result.entry.count >= 1) {
        session->SeedFromCache(result.entry.count, result.entry.mean,
                               result.entry.m2, result.entry.first_stage_count,
                               result.entry.first_stage_sd);
      }
      // The requester's own estimator usually re-concludes from the seeded
      // bag (its interval is no narrower than the donor's); when it does
      // not — e.g. the donor decided under a different estimator — the
      // memoised verdict is still valid at the covering confidence.
      if (!session->Finished()) {
        session->ForceOutcomeFromCache(result.entry.outcome);
      }
      if (recorder_ != nullptr) recorder_->RecordCounter("cache/hit", 1.0);
      return;
    case cache::LookupStatus::kTopUp:
      session->SeedFromCache(result.entry.count, result.entry.mean,
                             result.entry.m2, result.entry.first_stage_count,
                             result.entry.first_stage_sd);
      if (recorder_ != nullptr) recorder_->RecordCounter("cache/topup", 1.0);
      return;
    case cache::LookupStatus::kInferred:
      session->ForceOutcomeFromCache(result.entry.outcome);
      if (recorder_ != nullptr) {
        recorder_->RecordCounter("cache/inferred_hit", 1.0);
      }
      return;
  }
}

ComparisonSession* ComparisonCache::GetSession(ItemId i, ItemId j) {
  CROWDTOPK_CHECK_NE(i, j);
  const ItemId lo = std::min(i, j);
  const ItemId hi = std::max(i, j);
  const auto [it, created] = sessions_.try_emplace(Key(lo, hi), lo, hi,
                                                   &options_);
  if (created) ConsultSharedCache(&it->second);
  return &it->second;
}

const ComparisonSession* ComparisonCache::FindSession(ItemId i,
                                                      ItemId j) const {
  CROWDTOPK_CHECK_NE(i, j);
  const ItemId lo = std::min(i, j);
  const ItemId hi = std::max(i, j);
  const auto it = sessions_.find(Key(lo, hi));
  return it == sessions_.end() ? nullptr : &it->second;
}

ComparisonOutcome ComparisonCache::Compare(ItemId i, ItemId j,
                                           crowd::CrowdPlatform* platform) {
  ComparisonSession* session = GetSession(i, j);
  ComparisonOutcome outcome = session->Finished()
                                  ? session->outcome()
                                  : session->RunToCompletion(platform);
  if (i != session->left()) outcome = crowd::Reverse(outcome);
  return outcome;
}

double ComparisonCache::EstimatedMean(ItemId i, ItemId j) const {
  const ComparisonSession* session = FindSession(i, j);
  if (session == nullptr) return 0.0;
  return i == session->left() ? session->Mean() : -session->Mean();
}

double ComparisonCache::EstimatedStdDev(ItemId i, ItemId j) const {
  const ComparisonSession* session = FindSession(i, j);
  return session == nullptr ? 0.0 : session->StdDev();
}

int64_t ComparisonCache::Workload(ItemId i, ItemId j) const {
  const ComparisonSession* session = FindSession(i, j);
  return session == nullptr ? 0 : session->workload();
}

bool ComparisonCache::LikelyBetter(ItemId i, ItemId j) const {
  const ComparisonSession* session = FindSession(i, j);
  if (session == nullptr) return false;
  const ComparisonOutcome outcome =
      i == session->left() ? session->outcome()
                           : crowd::Reverse(session->outcome());
  if (session->Finished() && outcome != ComparisonOutcome::kTie) {
    return outcome == ComparisonOutcome::kLeftWins;
  }
  return EstimatedMean(i, j) > 0.0;
}

}  // namespace crowdtopk::judgment
