#include "verify/guarantee.h"

#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "core/spr.h"
#include "crowd/platform.h"
#include "data/gaussian_dataset.h"
#include "data/generators.h"
#include "stats/binomial.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"
#include "util/check.h"
#include "util/random.h"

namespace crowdtopk::verify {
namespace {

// Salt separating the fault pool's profile seed from the per-trial streams
// derived from the same master seed.
constexpr uint64_t kFaultPoolStream = 0x76657269667900ULL;  // "verify"

// '/' is the telemetry phase-path separator; keep labels one level deep.
std::string PhaseToken(const std::string& label) {
  std::string token = label;
  for (char& c : token) {
    if (c == '/') c = '_';
  }
  return token.empty() ? "check" : token;
}

// A trial returns {errors, ties, workload, bernoulli trials}; the driver
// accumulates blocks and applies the sequential stopping rule. All
// arithmetic that feeds the rule is integer, so the trajectory is exact.
GuaranteeReport RunSequential(
    const std::string& label, const std::string& kind, double alpha,
    double contract, const VerifyOptions& options, exec::RunEngine* engine,
    uint64_t seed,
    const std::function<std::vector<double>(int64_t, uint64_t)>& trial,
    int64_t jobs_override) {
  CROWDTOPK_CHECK(engine != nullptr);
  CROWDTOPK_CHECK_GE(options.max_trials, 1);
  CROWDTOPK_CHECK_GE(options.block_trials, 1);
  CROWDTOPK_CHECK(contract > 0.0 && contract < 1.0);

  GuaranteeReport report;
  report.label = label;
  report.kind = kind;
  report.alpha = alpha;
  report.contract = contract;

  int64_t runs = 0;
  double workload_sum = 0.0;
  int64_t block_index = 0;
  while (runs < options.max_trials) {
    const int64_t block =
        std::min(options.block_trials, options.max_trials - runs);
    const int64_t base = runs;
    // Trial t's seed is SplitSeed(seed, t) regardless of which block or
    // worker executes it; the engine-provided per-run seed is ignored so
    // the stream survives re-blocking.
    const std::vector<std::vector<double>> records = engine->Run(
        {"verify/" + kind + "/" + label, block_index}, block, seed,
        [&](int64_t run, uint64_t) {
          const int64_t t = base + run;
          return trial(t, util::SplitSeed(seed, static_cast<uint64_t>(t)));
        },
        jobs_override);
    ++block_index;
    for (const std::vector<double>& record : records) {
      report.errors += std::llround(record[0]);
      report.ties += std::llround(record[1]);
      workload_sum += record[2];
      report.trials += std::llround(record[3]);
    }
    runs += block;
    const stats::ProportionInterval band = stats::WilsonScoreInterval(
        report.errors, report.trials, options.band_alpha);
    // Early stop once the band decides either way: entirely at or below the
    // contract (decisive pass) or entirely above it (decisive violation).
    if (band.hi <= contract || band.lo > contract) {
      report.decisive = true;
      break;
    }
  }

  const stats::ProportionInterval band = stats::WilsonScoreInterval(
      report.errors, report.trials, options.band_alpha);
  report.error_rate =
      static_cast<double>(report.errors) / static_cast<double>(report.trials);
  report.wilson_lo = band.lo;
  report.wilson_hi = band.hi;
  report.mean_workload = workload_sum / static_cast<double>(runs);
  report.verdict =
      report.wilson_lo > contract ? Verdict::kFail : Verdict::kPass;
  return report;
}

}  // namespace

const char* VerdictName(Verdict verdict) {
  return verdict == Verdict::kPass ? "PASS" : "FAIL";
}

GuaranteeReport VerifyComparisonGuarantee(const CompCheckSpec& spec,
                                          const VerifyOptions& options,
                                          exec::RunEngine* engine,
                                          uint64_t seed) {
  CROWDTOPK_CHECK(spec.alpha > 0.0 && spec.alpha < 1.0);
  CROWDTOPK_CHECK(spec.effect > 0.0);
  // Ground truth: item 1 beats item 0; one judgment has mean/sd = effect.
  data::GaussianDataset pair("verify", {0.0, 1.0}, 1.0 / spec.effect, 10.0);
  std::unique_ptr<fault::FaultInjectionOracle> injector;
  const crowd::JudgmentOracle* oracle = &pair;
  if (fault::AnyValueFaults(spec.faults)) {
    // Immutable after construction: safe to share across parallel trials.
    injector = std::make_unique<fault::FaultInjectionOracle>(
        &pair, spec.faults, util::SplitSeed(seed, kFaultPoolStream));
    oracle = injector.get();
  }
  judgment::ComparisonOptions comparison;
  comparison.alpha = spec.alpha;
  comparison.budget = spec.budget;
  comparison.min_workload = spec.min_workload;
  comparison.batch_size = spec.batch_size;
  comparison.estimator = spec.estimator;

  return RunSequential(
      spec.label, "comp", spec.alpha, /*contract=*/spec.alpha, options,
      engine, seed,
      [&](int64_t, uint64_t trial_seed) -> std::vector<double> {
        crowd::CrowdPlatform platform(oracle, trial_seed);
        judgment::ComparisonSession session(1, 0, &comparison);
        const crowd::ComparisonOutcome outcome =
            session.RunToCompletion(&platform);
        return {outcome == crowd::ComparisonOutcome::kRightWins ? 1.0 : 0.0,
                outcome == crowd::ComparisonOutcome::kTie ? 1.0 : 0.0,
                static_cast<double>(session.workload()), 1.0};
      },
      options.jobs_override);
}

GuaranteeReport VerifySprGuarantee(const SprCheckSpec& spec,
                                   const VerifyOptions& options,
                                   exec::RunEngine* engine, uint64_t seed) {
  CROWDTOPK_CHECK(spec.alpha > 0.0 && spec.alpha < 1.0);
  CROWDTOPK_CHECK(spec.k >= 1 && spec.k <= spec.n);
  const std::unique_ptr<data::GaussianDataset> ladder =
      data::MakeUniformLadder(spec.n, spec.gap, spec.noise);
  std::unique_ptr<fault::FaultInjectionOracle> injector;
  const crowd::JudgmentOracle* oracle = ladder.get();
  if (fault::AnyValueFaults(spec.faults)) {
    injector = std::make_unique<fault::FaultInjectionOracle>(
        ladder.get(), spec.faults, util::SplitSeed(seed, kFaultPoolStream));
    oracle = injector.get();
  }
  core::SprOptions spr_options;
  spr_options.comparison.alpha = spec.alpha;
  spr_options.comparison.budget = spec.budget;
  spr_options.sweet_spot_c = spec.sweet_spot_c;
  core::Spr spr(spr_options);
  const int64_t jobs_override =
      spr.concurrent_runs_safe() ? options.jobs_override : 1;

  // Section 5.4: expected precision >= (1 - alpha) / c, i.e. the per-slot
  // top-k error rate is contracted to stay below 1 - (1 - alpha) / c.
  const double contract =
      1.0 - core::SprPrecisionLowerBound(spec.alpha, spec.sweet_spot_c);
  return RunSequential(
      spec.label, "spr", spec.alpha, contract, options, engine, seed,
      [&](int64_t, uint64_t trial_seed) -> std::vector<double> {
        crowd::CrowdPlatform platform(oracle, trial_seed);
        const core::TopKResult result = spr.Run(&platform, spec.k);
        // True top-k of the ladder: the k highest item ids.
        int64_t wrong = 0;
        for (const crowd::ItemId item : result.items) {
          if (item < spec.n - spec.k) ++wrong;
        }
        return {static_cast<double>(wrong), 0.0,
                static_cast<double>(result.total_microtasks),
                static_cast<double>(result.items.size())};
      },
      jobs_override);
}

std::vector<telemetry::TraceEvent> ReportEvents(
    const std::vector<GuaranteeReport>& reports) {
  telemetry::TraceRecorder recorder;
  telemetry::PhaseScope verify_scope(&recorder, "verify");
  for (const GuaranteeReport& report : reports) {
    telemetry::PhaseScope scope(&recorder,
                                PhaseToken(report.kind + "_" + report.label));
    recorder.RecordCounter("alpha", report.alpha);
    recorder.RecordCounter("contract", report.contract);
    recorder.RecordCounter("trials", static_cast<double>(report.trials));
    recorder.RecordCounter("errors", static_cast<double>(report.errors));
    recorder.RecordCounter("ties", static_cast<double>(report.ties));
    recorder.RecordCounter("error_rate", report.error_rate);
    recorder.RecordCounter("wilson_lo", report.wilson_lo);
    recorder.RecordCounter("wilson_hi", report.wilson_hi);
    recorder.RecordCounter("mean_workload", report.mean_workload);
    recorder.RecordCounter("decisive", report.decisive ? 1.0 : 0.0);
    recorder.RecordCounter("pass",
                           report.verdict == Verdict::kPass ? 1.0 : 0.0);
  }
  return recorder.events();
}

util::Status WriteReportJsonl(const std::vector<GuaranteeReport>& reports,
                              const std::string& path) {
  return telemetry::WriteJsonlFile(ReportEvents(reports), path);
}

}  // namespace crowdtopk::verify
