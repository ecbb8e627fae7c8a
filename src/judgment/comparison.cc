#include "judgment/comparison.h"

#include <algorithm>
#include <cmath>

#include "stats/anytime.h"
#include "stats/hoeffding.h"
#include "stats/student_t.h"
#include "util/check.h"

namespace crowdtopk::judgment {

double EffectiveAlpha(const ComparisonOptions& options) {
  if (!options.one_sided) return options.alpha;
  return std::min(2.0 * options.alpha, 0.5);
}

ComparisonSession::ComparisonSession(ItemId left, ItemId right,
                                     const ComparisonOptions* options)
    : left_(left), right_(right), options_(options) {
  CROWDTOPK_CHECK(options != nullptr);
  CROWDTOPK_CHECK_NE(left, right);
  CROWDTOPK_CHECK_GE(options->budget, 1);
  CROWDTOPK_CHECK_GE(options->min_workload, 2);
  CROWDTOPK_CHECK_GE(options->batch_size, 1);
}

void ComparisonSession::Step(crowd::CrowdPlatform* platform, int64_t batch) {
  if (finished_) return;
  CROWDTOPK_CHECK_GE(batch, 1);
  int64_t to_buy = batch;
  if (bag_.count() == 0) {
    // Cold start: the first publication is at least I microtasks
    // (Algorithm 1 line 1).
    to_buy = std::max(to_buy, options_->min_workload);
  }
  to_buy = std::min(to_buy, options_->budget - bag_.count());
  CROWDTOPK_CHECK_GE(to_buy, 0);
  if (to_buy > 0) {
    Purchase(platform, to_buy);
    if (first_stage_count_ == 0 &&
        bag_.count() >= options_->min_workload) {
      // Freeze Stein's first-stage variance estimate.
      first_stage_count_ = bag_.count();
      first_stage_sd_ = bag_.StdDev();
    }
  }
  Evaluate();
  if (!finished_ && bag_.count() >= options_->budget) {
    // Budget exhausted: indistinguishable under budget B.
    finished_ = true;
    outcome_ = ComparisonOutcome::kTie;
  }
}

ComparisonOutcome ComparisonSession::RunToCompletion(
    crowd::CrowdPlatform* platform) {
  while (!finished_) {
    Step(platform, options_->batch_size);
    platform->NextRound();
  }
  return outcome_;
}

void ComparisonSession::RefineWithExtraSamples(crowd::CrowdPlatform* platform,
                                               int64_t count) {
  CROWDTOPK_CHECK_GE(count, 0);
  if (count == 0) return;
  Purchase(platform, count);
}

void ComparisonSession::Purchase(crowd::CrowdPlatform* platform,
                                 int64_t count) {
  // Tag the purchase with this session's confidence-process iteration so
  // traces can reconstruct the stopping rule's convergence profile.
  telemetry::TraceRecorder* recorder = platform->recorder();
  if (recorder != nullptr) {
    recorder->SetPurchaseIteration(purchase_iterations_);
  }
  scratch_.clear();
  if (options_->estimator == Estimator::kHoeffding) {
    platform->CollectBinaryVotes(left_, right_, count, &scratch_);
  } else {
    platform->CollectPreferences(left_, right_, count, &scratch_);
  }
  if (recorder != nullptr) recorder->SetPurchaseIteration(-1);
  ++purchase_iterations_;
  for (double v : scratch_) bag_.Add(v);
}

void ComparisonSession::AddSampleForTest(double value) {
  CROWDTOPK_CHECK(!finished_);
  bag_.Add(value);
  if (first_stage_count_ == 0 && bag_.count() >= options_->min_workload) {
    first_stage_count_ = bag_.count();
    first_stage_sd_ = bag_.StdDev();
  }
  if (bag_.count() >= options_->min_workload) {
    Evaluate();
  }
  if (!finished_ && bag_.count() >= options_->budget) {
    finished_ = true;
    outcome_ = ComparisonOutcome::kTie;
  }
}

void ComparisonSession::SeedFromCache(int64_t count, double mean, double m2,
                                      int64_t first_stage_count,
                                      double first_stage_sd) {
  CROWDTOPK_CHECK(!finished_);
  CROWDTOPK_CHECK_EQ(bag_.count(), 0);
  CROWDTOPK_CHECK_GE(count, 1);
  bag_.Restore(count, mean, m2);
  seeded_count_ = count;
  first_stage_count_ = first_stage_count;
  first_stage_sd_ = first_stage_sd;
  if (first_stage_count_ == 0 && bag_.count() >= options_->min_workload) {
    // Donor never froze a first stage (it was seeded below I and abandoned);
    // freeze from the restored bag, as Step() would after a purchase.
    first_stage_count_ = bag_.count();
    first_stage_sd_ = bag_.StdDev();
  }
  if (bag_.count() >= options_->min_workload) {
    Evaluate();
  }
  if (!finished_ && bag_.count() >= options_->budget) {
    finished_ = true;
    outcome_ = ComparisonOutcome::kTie;
  }
}

void ComparisonSession::ForceOutcomeFromCache(ComparisonOutcome outcome) {
  CROWDTOPK_CHECK(!finished_);
  finished_ = true;
  outcome_ = outcome;
}

void ComparisonSession::Evaluate() {
  if (bag_.count() < 2) return;
  bool excludes_zero = false;
  switch (options_->estimator) {
    case Estimator::kStudent:
      excludes_zero = IntervalExcludesZeroStudent();
      break;
    case Estimator::kStein:
      excludes_zero = IntervalExcludesZeroStein();
      break;
    case Estimator::kHoeffding:
      excludes_zero = IntervalExcludesZeroHoeffding();
      break;
    case Estimator::kAnytime:
      excludes_zero = IntervalExcludesZeroAnytime();
      break;
  }
  if (excludes_zero) {
    finished_ = true;
    outcome_ = bag_.Mean() > 0.0 ? ComparisonOutcome::kLeftWins
                                 : ComparisonOutcome::kRightWins;
  }
}

bool ComparisonSession::IntervalExcludesZeroStudent() const {
  const double mean = bag_.Mean();
  if (mean == 0.0) return false;
  const int64_t n = bag_.count();
  const double sd = bag_.StdDev();
  // Degenerate bag (all samples identical and nonzero): zero-width interval.
  if (sd == 0.0) return true;
  const double half_width =
      stats::TCritical(EffectiveAlpha(*options_), n - 1) * sd /
      std::sqrt(static_cast<double>(n));
  return std::fabs(mean) > half_width;
}

bool ComparisonSession::IntervalExcludesZeroStein() const {
  // Algorithm 5 with Stein's genuine two-stage variance treatment: the
  // standard deviation S_y and the degrees of freedom y-1 are frozen at the
  // first stage (the cold-start bag of I samples) -- this is what makes
  // Stein's required sample size independent of the (unknown) variance.
  // The interval half-width L = |mean| - epsilon tracks the running mean
  // (the progressive adaptation of Appendix E); conclude once
  // S_y^2 * L^-2 * t^2_{1-alpha/2, y-1} <= n. Note: with S and the dof
  // updated every step instead (a literal reading of Algorithm 5 lines 6-8),
  // the rule becomes algebraically identical to StudentComp.
  const double mean = bag_.Mean();
  const double half_width = std::fabs(mean) - options_->stein_epsilon;
  if (half_width <= 0.0) return false;
  const int64_t n = bag_.count();
  if (first_stage_count_ < 2) return false;  // no variance estimate yet
  const double sd = first_stage_sd_;
  if (sd == 0.0) return true;
  const double t =
      stats::TCritical(EffectiveAlpha(*options_), first_stage_count_ - 1);
  const double required = sd * sd * t * t / (half_width * half_width);
  return required <= static_cast<double>(n);
}

bool ComparisonSession::IntervalExcludesZeroHoeffding() const {
  const double mean = bag_.Mean();
  if (mean == 0.0) return false;
  // Binary votes live in {-1, +1}: range 2. EffectiveAlpha doubles alpha in
  // one-sided mode, turning ln(2/alpha) into ln(1/alpha) inside the bound.
  const double half_width = stats::HoeffdingHalfWidth(
      bag_.count(), 2.0, EffectiveAlpha(*options_));
  return std::fabs(mean) > half_width;
}

bool ComparisonSession::IntervalExcludesZeroAnytime() const {
  const double mean = bag_.Mean();
  if (mean == 0.0) return false;
  const double sd = bag_.StdDev();
  if (sd == 0.0) return true;
  const double half_width = stats::AnytimeHalfWidth(
      bag_.count(), sd, EffectiveAlpha(*options_));
  return std::fabs(mean) > half_width;
}

ComparisonOutcome RunComparison(ItemId i, ItemId j,
                                const ComparisonOptions& options,
                                crowd::CrowdPlatform* platform,
                                int64_t* workload_out) {
  ComparisonSession session(i, j, &options);
  const ComparisonOutcome outcome = session.RunToCompletion(platform);
  if (workload_out != nullptr) *workload_out = session.workload();
  return outcome;
}

}  // namespace crowdtopk::judgment
