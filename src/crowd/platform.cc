#include "crowd/platform.h"

#include "util/check.h"

namespace crowdtopk::crowd {

CrowdPlatform::CrowdPlatform(const JudgmentOracle* oracle, uint64_t seed)
    : oracle_(oracle), rng_(seed) {
  CROWDTOPK_CHECK(oracle != nullptr);
}

void CrowdPlatform::CollectPreferences(ItemId i, ItemId j, int64_t count,
                                       std::vector<double>* out) {
  CROWDTOPK_CHECK_GE(count, 0);
  CROWDTOPK_DCHECK(i != j);
  for (int64_t t = 0; t < count; ++t) {
    out->push_back(oracle_->PreferenceJudgment(i, j, &rng_));
  }
  Meter(telemetry::PurchaseKind::kPreference, i, j, count);
}

void CrowdPlatform::CollectBinaryVotes(ItemId i, ItemId j, int64_t count,
                                       std::vector<double>* out) {
  CROWDTOPK_CHECK_GE(count, 0);
  CROWDTOPK_DCHECK(i != j);
  for (int64_t t = 0; t < count; ++t) {
    out->push_back(oracle_->BinaryJudgment(i, j, &rng_));
  }
  Meter(telemetry::PurchaseKind::kBinary, i, j, count);
}

void CrowdPlatform::CollectGrades(ItemId i, int64_t count,
                                  std::vector<double>* out) {
  CROWDTOPK_CHECK_GE(count, 0);
  for (int64_t t = 0; t < count; ++t) {
    out->push_back(oracle_->GradedJudgment(i, &rng_));
  }
  Meter(telemetry::PurchaseKind::kGraded, i, /*j=*/-1, count);
}

void CrowdPlatform::Meter(telemetry::PurchaseKind kind, ItemId i, ItemId j,
                          int64_t count) {
  total_microtasks_ += count;
  if (count == 0) return;
  if (recorder_ != nullptr) recorder_->RecordPurchase(kind, i, j, count);
  if (latency_model_ != nullptr) latency_model_->OnPurchase(i, j, count);
}

void CrowdPlatform::AccountRounds(int64_t n) {
  CROWDTOPK_CHECK_GE(n, 0);
  rounds_ += n;
  if (n == 0) return;
  if (recorder_ != nullptr) recorder_->RecordRounds(n);
  // Last: a served query's driver parks here until the rounds have run.
  if (latency_model_ != nullptr) latency_model_->OnRounds(n);
}

void CrowdPlatform::ResetCounters() {
  total_microtasks_ = 0;
  rounds_ = 0;
}

}  // namespace crowdtopk::crowd
