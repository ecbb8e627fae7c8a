// crowdtopk_verify: statistical-guarantee verification harness (src/verify).
//
// Runs Monte-Carlo sweeps that check the paper's probabilistic contracts —
// COMP answers correctly with probability >= 1 - alpha (Section 3) and
// SPR's expected precision is >= (1 - alpha) / c (Section 5.4) — on a
// clean crowd and, optionally, on a crowd wrapped in the fault-injection
// layer (src/fault). Each check is judged with a strict Wilson pass/fail
// band and stops early once the band is decisive.
//
// Argument-free like the benches; all knobs are environment variables:
//   CROWDTOPK_VERIFY_TRIALS      max Monte-Carlo trials per check   (400)
//   CROWDTOPK_VERIFY_BLOCK       trials per sequential block        (50)
//   CROWDTOPK_VERIFY_BAND_ALPHA  Wilson band significance           (0.002)
//   CROWDTOPK_VERIFY_ALPHAS      comma list of contract alphas      (0.05,0.1)
//   CROWDTOPK_VERIFY_ESTIMATORS  comma list: student,stein,hoeffding,anytime
//                                                       (student,stein,hoeffding)
//   CROWDTOPK_VERIFY_EFFECT      COMP pair effect size mean/sd      (0.6)
//   CROWDTOPK_VERIFY_BUDGET      per-pair budget for COMP checks    (1<<20)
//   CROWDTOPK_VERIFY_SPR         =0 skips the end-to-end SPR checks (1)
//   CROWDTOPK_VERIFY_REPORT      JSONL report path; empty = stdout only
//   CROWDTOPK_FAULT_SPAMMER      spammer worker fraction            (0)
//   CROWDTOPK_FAULT_ADVERSARY    adversarial worker fraction        (0)
//   CROWDTOPK_FAULT_LAZY         lazy worker fraction               (0)
//   CROWDTOPK_FAULT_DUPLICATE    duplicate-submitter fraction       (0)
//   CROWDTOPK_FAULT_WORKERS      simulated worker pool size         (200)
//   CROWDTOPK_SEED, CROWDTOPK_JOBS as everywhere else
//     (docs/OBSERVABILITY.md). The report is bit-identical for every
//     CROWDTOPK_JOBS value, including each check's early-stop point.
//
// When any CROWDTOPK_FAULT_* fraction is positive every check also runs a
// "<label>+fault" variant against the faulty crowd. Faulty-crowd verdicts
// are diagnostic — the paper's contracts assume honest workers, so a FAIL
// there documents degradation rather than a bug. The process exit code
// reflects clean-crowd checks only: 0 iff none of them is a FAIL. Every
// knob is checked before any check runs: a malformed or out-of-range value
// ends in one line naming it and exit code 2.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/run_engine.h"
#include "fault/injector.h"
#include "judgment/comparison.h"
#include "util/env.h"
#include "verify/guarantee.h"

namespace {

using namespace crowdtopk;

std::optional<judgment::Estimator> ParseEstimator(const std::string& name) {
  if (name == "student") return judgment::Estimator::kStudent;
  if (name == "stein") return judgment::Estimator::kStein;
  if (name == "hoeffding") return judgment::Estimator::kHoeffding;
  if (name == "anytime") return judgment::Estimator::kAnytime;
  return std::nullopt;
}

// Parses all of `text` as a number: no trailing characters, no overflow.
bool ParseWholeDouble(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

// Reports a knob value that is malformed or out of its range; exit code 2.
int BadKnob(const std::string& message) {
  std::fprintf(stderr, "crowdtopk_verify: %s (try --help)\n",
               message.c_str());
  return 2;
}

fault::FaultPlan EnvFaultPlan() {
  fault::FaultPlan plan;
  plan.num_workers = util::GetEnvInt64("CROWDTOPK_FAULT_WORKERS", 200);
  plan.spammer_fraction = util::GetEnvDouble("CROWDTOPK_FAULT_SPAMMER", 0.0);
  plan.adversary_fraction =
      util::GetEnvDouble("CROWDTOPK_FAULT_ADVERSARY", 0.0);
  plan.lazy_fraction = util::GetEnvDouble("CROWDTOPK_FAULT_LAZY", 0.0);
  plan.duplicate_fraction =
      util::GetEnvDouble("CROWDTOPK_FAULT_DUPLICATE", 0.0);
  return plan;
}

void PrintReport(const verify::GuaranteeReport& report) {
  std::printf(
      "%-28s %-4s a=%.3f contract<=%.4f  err %5lld/%-6lld (%.4f)  "
      "wilson [%.4f, %.4f]  ties %lld  workload %.1f  %s%s\n",
      report.label.c_str(), report.kind.c_str(), report.alpha,
      report.contract, static_cast<long long>(report.errors),
      static_cast<long long>(report.trials), report.error_rate,
      report.wilson_lo, report.wilson_hi,
      static_cast<long long>(report.ties), report.mean_workload,
      verify::VerdictName(report.verdict),
      report.decisive ? " (early stop)" : "");
}

constexpr char kHelp[] = R"(crowdtopk_verify - statistical-guarantee verification harness

Usage: crowdtopk_verify [--help]

Runs Monte-Carlo sweeps that check the paper's probabilistic contracts
(COMP correctness >= 1 - alpha; SPR expected precision >= (1 - alpha)/c)
on a clean crowd and, when any CROWDTOPK_FAULT_* fraction is positive,
on a faulty crowd too.

All knobs are environment variables:

Verification knobs
  CROWDTOPK_VERIFY_TRIALS      max Monte-Carlo trials per check   (default 400)
  CROWDTOPK_VERIFY_BLOCK       trials per sequential block        (default 50)
  CROWDTOPK_VERIFY_BAND_ALPHA  Wilson band significance           (default 0.002)
  CROWDTOPK_VERIFY_ALPHAS      comma list of contract alphas      (default 0.05,0.1)
  CROWDTOPK_VERIFY_ESTIMATORS  comma list: student,stein,hoeffding,anytime
                                              (default student,stein,hoeffding)
  CROWDTOPK_VERIFY_EFFECT      COMP pair effect size mean/sd      (default 0.6)
  CROWDTOPK_VERIFY_BUDGET      per-pair budget for COMP checks    (default 1048576)
  CROWDTOPK_VERIFY_SPR         =0 skips the end-to-end SPR checks (default 1)
  CROWDTOPK_VERIFY_REPORT      JSONL report path; empty = stdout  (default empty)

Fault-injection knobs (any positive fraction adds "+fault" variants)
  CROWDTOPK_FAULT_SPAMMER      spammer worker fraction            (default 0)
  CROWDTOPK_FAULT_ADVERSARY    adversarial worker fraction        (default 0)
  CROWDTOPK_FAULT_LAZY         lazy worker fraction               (default 0)
  CROWDTOPK_FAULT_DUPLICATE    duplicate-submitter fraction       (default 0)
  CROWDTOPK_FAULT_WORKERS      simulated worker pool size         (default 200)

Common knobs
  CROWDTOPK_SEED               base RNG seed                      (default 42)
  CROWDTOPK_JOBS               worker threads; report is bit-identical
                               for every value                    (default hw)

Exit codes: 0 every clean-crowd check passes, 1 a clean-crowd check
FAILs, 2 bad argument, knob malformed or out of range, or report write
failure.
)";

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kHelp, stdout);
      return 0;
    }
    std::fprintf(stderr, "crowdtopk_verify: unknown argument '%s' (try --help)\n",
                 arg.c_str());
    return 2;
  }
  verify::VerifyOptions options;
  options.max_trials = util::GetEnvInt64("CROWDTOPK_VERIFY_TRIALS", 400);
  options.block_trials = util::GetEnvInt64("CROWDTOPK_VERIFY_BLOCK", 50);
  options.band_alpha =
      util::GetEnvDouble("CROWDTOPK_VERIFY_BAND_ALPHA", 0.002);
  const double effect = util::GetEnvDouble("CROWDTOPK_VERIFY_EFFECT", 0.6);
  const int64_t budget =
      util::GetEnvInt64("CROWDTOPK_VERIFY_BUDGET", int64_t{1} << 20);
  const bool check_spr = util::GetEnvBool("CROWDTOPK_VERIFY_SPR", true);
  const std::string report_path =
      util::GetEnvString("CROWDTOPK_VERIFY_REPORT", "");
  const uint64_t seed = util::BenchSeed();

  const std::vector<std::string> alpha_names =
      util::SplitCsv(util::GetEnvString("CROWDTOPK_VERIFY_ALPHAS", "0.05,0.1"));
  const std::vector<std::string> estimator_names = util::SplitCsv(
      util::GetEnvString("CROWDTOPK_VERIFY_ESTIMATORS",
                         "student,stein,hoeffding"));
  const fault::FaultPlan faults = EnvFaultPlan();

  // Each condition is written so that a NaN fails it.
  if (options.max_trials < 1) {
    return BadKnob("CROWDTOPK_VERIFY_TRIALS must be >= 1");
  }
  if (options.block_trials < 1) {
    return BadKnob("CROWDTOPK_VERIFY_BLOCK must be >= 1");
  }
  if (!(options.band_alpha > 0.0 && options.band_alpha < 1.0)) {
    return BadKnob("CROWDTOPK_VERIFY_BAND_ALPHA must be in (0, 1)");
  }
  if (alpha_names.empty()) {
    return BadKnob("CROWDTOPK_VERIFY_ALPHAS must list at least one alpha");
  }
  std::vector<double> alphas;
  for (const std::string& name : alpha_names) {
    double alpha = 0.0;
    if (!ParseWholeDouble(name, &alpha) || !(alpha > 0.0 && alpha < 1.0)) {
      return BadKnob("CROWDTOPK_VERIFY_ALPHAS entry '" + name +
                     "' must be a number in (0, 1)");
    }
    alphas.push_back(alpha);
  }
  if (estimator_names.empty()) {
    return BadKnob(
        "CROWDTOPK_VERIFY_ESTIMATORS must list at least one estimator");
  }
  std::vector<judgment::Estimator> estimators;
  for (const std::string& name : estimator_names) {
    const std::optional<judgment::Estimator> estimator = ParseEstimator(name);
    if (!estimator) {
      return BadKnob("unknown CROWDTOPK_VERIFY_ESTIMATORS entry '" + name +
                     "'");
    }
    estimators.push_back(*estimator);
  }
  if (!(std::isfinite(effect) && effect > 0.0)) {
    return BadKnob("CROWDTOPK_VERIFY_EFFECT must be finite and > 0");
  }
  if (budget < 1) return BadKnob("CROWDTOPK_VERIFY_BUDGET must be >= 1");
  for (const auto& [knob, fraction] :
       std::initializer_list<std::pair<const char*, double>>{
           {"CROWDTOPK_FAULT_SPAMMER", faults.spammer_fraction},
           {"CROWDTOPK_FAULT_ADVERSARY", faults.adversary_fraction},
           {"CROWDTOPK_FAULT_LAZY", faults.lazy_fraction},
           {"CROWDTOPK_FAULT_DUPLICATE", faults.duplicate_fraction}}) {
    if (!(fraction >= 0.0 && fraction <= 1.0)) {
      return BadKnob(std::string(knob) + " must be in [0, 1]");
    }
  }
  if (faults.num_workers < 1) {
    return BadKnob("CROWDTOPK_FAULT_WORKERS must be >= 1");
  }
  const bool faulty_sweep = fault::AnyValueFaults(faults);

  exec::RunEngine::Options engine_options;
  engine_options.jobs = util::BenchJobs();
  exec::RunEngine engine(engine_options);

  // The worker count is deliberately absent from the report: the output is
  // byte-identical for every CROWDTOPK_JOBS value, and CI diffs it.
  std::printf(
      "crowdtopk_verify: max %lld trials/check, blocks of %lld, Wilson band "
      "alpha=%.4g, seed=%llu\n",
      static_cast<long long>(options.max_trials),
      static_cast<long long>(options.block_trials), options.band_alpha,
      static_cast<unsigned long long>(seed));
  if (faulty_sweep) {
    std::printf(
        "fault sweep on: spammer=%.2f adversary=%.2f lazy=%.2f "
        "duplicate=%.2f over %lld workers (diagnostic; does not affect the "
        "exit code)\n",
        faults.spammer_fraction, faults.adversary_fraction,
        faults.lazy_fraction, faults.duplicate_fraction,
        static_cast<long long>(faults.num_workers));
  }
  std::printf("\n");

  std::vector<verify::GuaranteeReport> reports;
  int clean_failures = 0;
  const auto run_comp = [&](const verify::CompCheckSpec& spec, bool clean) {
    const verify::GuaranteeReport report =
        verify::VerifyComparisonGuarantee(spec, options, &engine, seed);
    PrintReport(report);
    if (clean && report.verdict == verify::Verdict::kFail) ++clean_failures;
    reports.push_back(report);
  };
  const auto run_spr = [&](const verify::SprCheckSpec& spec, bool clean) {
    const verify::GuaranteeReport report =
        verify::VerifySprGuarantee(spec, options, &engine, seed);
    PrintReport(report);
    if (clean && report.verdict == verify::Verdict::kFail) ++clean_failures;
    reports.push_back(report);
  };

  for (size_t a = 0; a < alphas.size(); ++a) {
    const std::string& alpha_name = alpha_names[a];
    const double alpha = alphas[a];
    for (size_t e = 0; e < estimators.size(); ++e) {
      verify::CompCheckSpec spec;
      spec.label = estimator_names[e] + "_a" + alpha_name;
      spec.estimator = estimators[e];
      spec.alpha = alpha;
      spec.effect = effect;
      spec.budget = budget;
      run_comp(spec, /*clean=*/true);
      if (faulty_sweep) {
        spec.label += "+fault";
        spec.faults = faults;
        run_comp(spec, /*clean=*/false);
      }
    }
    if (check_spr) {
      verify::SprCheckSpec spec;
      spec.label = "spr_a" + alpha_name;
      spec.alpha = alpha;
      run_spr(spec, /*clean=*/true);
      if (faulty_sweep) {
        spec.label += "+fault";
        spec.faults = faults;
        run_spr(spec, /*clean=*/false);
      }
    }
  }

  if (!report_path.empty()) {
    const util::Status status =
        verify::WriteReportJsonl(reports, report_path);
    if (!status.ok()) {
      std::fprintf(stderr, "crowdtopk_verify: writing %s failed: %s\n",
                   report_path.c_str(), status.ToString().c_str());
      return 2;
    }
    std::printf("\nreport: %s (%zu checks)\n", report_path.c_str(),
                reports.size());
  }

  if (clean_failures > 0) {
    std::printf(
        "\n%d clean-crowd guarantee violation(s): the Wilson lower bound "
        "exceeded the contract (see docs/OBSERVABILITY.md, 'Reading "
        "guarantee violations').\n",
        clean_failures);
    return 1;
  }
  std::printf("\nall clean-crowd contracts hold within the Wilson band\n");
  return 0;
}
