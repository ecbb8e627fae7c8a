// The confidence-aware comparison process COMP(o_i, o_j) (Section 3).
//
// A ComparisonSession owns the bag V_{i,j} of judgments for one item pair in
// summarised (Welford) form and decides, after each purchase, whether the
// 1-alpha confidence interval of the preference mean excludes the neutral
// value 0. Three estimators are provided:
//
//   kStudent   - Algorithm 1 (StudentComp): Student-t interval on preference
//                judgments.
//   kStein     - Algorithm 5 (SteinComp): Stein's progressive two-stage
//                estimation on preference judgments.
//   kHoeffding - the binary-judgment baseline (Busa-Fekete et al. [8],
//                Appendix D): Hoeffding interval on votes in {-1, +1}.
//
// Sessions are resumable: Step() buys any number of further microtasks, so a
// driver can advance many sessions "in parallel" within one batch round
// (Algorithm 4) or run one session to completion (RunComparison).
//
// Termination mirrors Algorithm 1: start with the cold-start workload I,
// then buy one batch (eta, Section 5.5) at a time until the interval
// excludes 0 or the per-pair budget B is exhausted, in which case the pair
// is declared a tie and ranked by its sample mean. Each purchase a session
// makes is tagged with its iteration count in traces
// (docs/OBSERVABILITY.md), which is how per-pair convergence cost is
// attributed in the observability tooling.

#ifndef CROWDTOPK_JUDGMENT_COMPARISON_H_
#define CROWDTOPK_JUDGMENT_COMPARISON_H_

#include <cstdint>
#include <vector>

#include "crowd/platform.h"
#include "crowd/types.h"
#include "stats/running_stats.h"

namespace crowdtopk::judgment {

using crowd::ComparisonOutcome;
using crowd::ItemId;

enum class Estimator {
  kStudent,
  kStein,
  kHoeffding,
  // Anytime-valid confidence sequence (LIL bound, stats/anytime.h): unlike
  // the fixed-n t-interval peeked after every sample, its error guarantee
  // holds *uniformly over the whole monitoring trajectory*, at the price of
  // wider intervals (larger workloads). Extension beyond the paper.
  kAnytime,
};

// Parameters shared by every comparison in one query (Table 6 defaults).
struct ComparisonOptions {
  // Significance level; the confidence level is 1 - alpha. Default matches
  // the paper's bold default 1 - alpha = 0.98.
  double alpha = 0.02;
  // Per-pair budget B: a comparison never buys more than this many
  // microtasks; when exhausted the pair is declared a tie.
  int64_t budget = 1000;
  // Minimum initial workload I (cold start; >= 30 per common practice).
  int64_t min_workload = 30;
  // Batch size eta: microtasks distributed per batch round (Section 5.5).
  int64_t batch_size = 30;
  // Which interval estimator drives the decision.
  Estimator estimator = Estimator::kStudent;
  // SteinComp's epsilon: the interval half width is |mean| - epsilon so the
  // interval always just excludes 0 (Appendix E).
  double stein_epsilon = 1e-6;
  // Half-closed intervals (Section 3.1: "Our strategy can also extend to
  // half-closed interval"): test each direction one-sidedly at level alpha
  // instead of alpha/2. At most one wrong direction exists, so the error
  // probability stays <= alpha while the smaller critical value stops
  // comparisons earlier.
  bool one_sided = false;
};

// The tail probability the critical value must cover: alpha/2 per side for
// the symmetric interval, alpha per side in one-sided mode.
double EffectiveAlpha(const ComparisonOptions& options);

// Resumable state of one COMP(left, right). The session always stores the
// pair in the orientation it was constructed with; a positive mean favours
// `left`. The Student and Stein rules read t_{EffectiveAlpha/2, df} from
// the process-wide memo (stats::TCritical).
class ComparisonSession {
 public:
  // `options` must outlive the session.
  ComparisonSession(ItemId left, ItemId right,
                    const ComparisonOptions* options);

  ItemId left() const { return left_; }
  ItemId right() const { return right_; }

  // True once an outcome (win/loss) has been reached, or the budget is
  // exhausted (outcome kTie).
  bool Finished() const { return finished_; }

  // Valid once Finished(); kTie until then.
  ComparisonOutcome outcome() const { return outcome_; }

  // True if the session finished only because the budget ran out.
  bool BudgetExhausted() const {
    return finished_ && outcome_ == ComparisonOutcome::kTie;
  }

  // Workload so far: |V_{i,j}|.
  int64_t workload() const { return bag_.count(); }

  // Number of purchases this session has made so far (confidence-process
  // iterations: 0 before the cold start, 1 after it, ...). When a telemetry
  // recorder is attached to the platform, each buy is tagged with the
  // iteration it belongs to, so traces expose the per-pair convergence
  // profile of the stopping rule.
  int64_t purchase_iterations() const { return purchase_iterations_; }

  // Sample mean / stddev of the bag (preference scale; sign favours left).
  double Mean() const { return bag_.Mean(); }
  double StdDev() const { return bag_.StdDev(); }

  // Buys up to `batch` more microtasks (clipped to the remaining budget,
  // and raised to min_workload I on the very first purchase as Algorithm 1
  // line 1 does), then re-evaluates the stopping rule. No-op when finished.
  // Does NOT advance the platform's round counter; callers group steps into
  // rounds themselves.
  void Step(crowd::CrowdPlatform* platform, int64_t batch);

  // Runs the session to completion under the batch policy: one batch per
  // round, advancing the platform's round counter after every purchase.
  ComparisonOutcome RunToCompletion(crowd::CrowdPlatform* platform);

  // Buys `count` further judgments IGNORING the stopping rule and the
  // per-pair budget cap. Used by interval-based ranking refinement
  // (core/interval_ranking.h), which deliberately keeps sampling after COMP
  // concluded to tighten the interval around the mean. Does not change the
  // recorded outcome.
  void RefineWithExtraSamples(crowd::CrowdPlatform* platform, int64_t count);

  // Injects an already-known judgment value without purchasing (testing and
  // offline replay).
  void AddSampleForTest(double value);

  // Seeds a fresh session from a memoised bag summary (the cross-query
  // judgment cache, src/cache): restores the Welford accumulator and Stein's
  // frozen first-stage estimate bit-for-bit to the donor session's state,
  // then re-evaluates the stopping rule under THIS session's options. Only
  // valid before any sample has been added. Subsequent Step() calls buy from
  // the restored count onward, exactly as the donor would have continued.
  void SeedFromCache(int64_t count, double mean, double m2,
                     int64_t first_stage_count, double first_stage_sd);

  // Marks the session finished with `outcome` without purchasing. Used for
  // cache hits: transitively inferred verdicts (empty bag — the verdict is
  // trusted at the cache's composed confidence) and seeded decisive verdicts
  // that this session's own estimator would not re-derive from the restored
  // bag (the donor may have decided under a different estimator).
  void ForceOutcomeFromCache(ComparisonOutcome outcome);

  // Samples restored by SeedFromCache (0 for cold sessions). workload() ==
  // seeded_count() means this session never purchased anything itself.
  int64_t seeded_count() const { return seeded_count_; }

  // Bag / first-stage raw state, read off by the cache when memoising.
  double M2() const { return bag_.M2(); }
  int64_t first_stage_count() const { return first_stage_count_; }
  double first_stage_sd() const { return first_stage_sd_; }

 private:
  // Re-evaluates the stopping rule from the current bag.
  void Evaluate();

  // Buys `count` judgments of the configured kind into the bag, tagging the
  // purchase with the current iteration when telemetry is attached.
  void Purchase(crowd::CrowdPlatform* platform, int64_t count);

  bool IntervalExcludesZeroStudent() const;
  bool IntervalExcludesZeroStein() const;
  bool IntervalExcludesZeroHoeffding() const;
  bool IntervalExcludesZeroAnytime() const;

  ItemId left_;
  ItemId right_;
  const ComparisonOptions* options_;
  stats::RunningStats bag_;
  // Stein's first-stage variance estimate (frozen at the cold start).
  int64_t first_stage_count_ = 0;
  double first_stage_sd_ = 0.0;
  bool finished_ = false;
  ComparisonOutcome outcome_ = ComparisonOutcome::kTie;
  int64_t purchase_iterations_ = 0;
  int64_t seeded_count_ = 0;
  std::vector<double> scratch_;  // reused purchase buffer
};

// Convenience wrapper: runs a fresh COMP(i, j) to completion.
ComparisonOutcome RunComparison(ItemId i, ItemId j,
                                const ComparisonOptions& options,
                                crowd::CrowdPlatform* platform,
                                int64_t* workload_out = nullptr);

}  // namespace crowdtopk::judgment

#endif  // CROWDTOPK_JUDGMENT_COMPARISON_H_
