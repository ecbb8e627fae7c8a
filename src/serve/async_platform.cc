#include "serve/async_platform.h"

#include "util/check.h"

namespace crowdtopk::serve {

AsyncPlatform::AsyncPlatform(const crowd::JudgmentOracle* oracle,
                             uint64_t seed, BatchScheduler::Query* query)
    : crowd::CrowdPlatform(oracle, seed), query_(query) {
  CROWDTOPK_CHECK(query != nullptr);
}

void AsyncPlatform::CollectPreferences(crowd::ItemId i, crowd::ItemId j,
                                       int64_t count,
                                       std::vector<double>* out) {
  crowd::CrowdPlatform::CollectPreferences(i, j, count, out);
  query_->PostPurchase(i, j, count);
}

void AsyncPlatform::CollectBinaryVotes(crowd::ItemId i, crowd::ItemId j,
                                       int64_t count,
                                       std::vector<double>* out) {
  crowd::CrowdPlatform::CollectBinaryVotes(i, j, count, out);
  query_->PostPurchase(i, j, count);
}

void AsyncPlatform::CollectGrades(crowd::ItemId i, int64_t count,
                                  std::vector<double>* out) {
  crowd::CrowdPlatform::CollectGrades(i, count, out);
  query_->PostPurchase(i, /*j=*/-1, count);
}

void AsyncPlatform::NextRound() {
  crowd::CrowdPlatform::NextRound();
  query_->Barrier(1);
}

void AsyncPlatform::AccountRounds(int64_t n) {
  crowd::CrowdPlatform::AccountRounds(n);
  if (n > 0) query_->Barrier(n);
}

void AsyncPlatform::Drain() { query_->Barrier(0); }

}  // namespace crowdtopk::serve
