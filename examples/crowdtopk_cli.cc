// crowdtopk_cli: run any top-k method on any dataset from the command line.
//
// Usage:
//   crowdtopk_cli [--dataset=imdb|book|jester|photo|peopleage]
//                 [--histogram_csv=PATH]      (load your own rating data)
//                 [--pairwise_csv=PATH --scores_csv=PATH]
//                 [--method=spr|tourtree|heapsort|quickselect|pbr|
//                           crowdbt|hybrid|hybridspr|all]
//                 [--k=10] [--confidence=0.98] [--budget=1000]
//                 [--batch=30] [--runs=1] [--seed=1] [--n=0 (subset size)]
//                 [--one_sided] [--estimator=student|stein|hoeffding]
//
// Examples:
//   crowdtopk_cli --dataset=jester --method=all --k=5 --runs=3
//   crowdtopk_cli --histogram_csv=books.csv --method=spr --k=10

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/crowd_bt.h"
#include "baselines/hybrid.h"
#include "baselines/pbr.h"
#include "baselines/registry.h"
#include "core/infimum.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "data/io.h"
#include "data/subset_dataset.h"
#include "metrics/ranking_metrics.h"
#include "util/random.h"
#include "util/table.h"

namespace {

using namespace crowdtopk;

// ---------------------------------------------------------- flag parsing

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& name, const std::string& fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& name, int64_t fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : std::atoll(it->second.c_str());
  }
  double GetDouble(const std::string& name, double fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
  bool Has(const std::string& name) const { return values.count(name) > 0; }
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg);
      return false;
    }
    const char* body = arg + 2;
    const char* equals = std::strchr(body, '=');
    if (equals == nullptr) {
      flags->values[body] = "true";  // boolean flag
    } else {
      flags->values[std::string(body, equals - body)] = equals + 1;
    }
  }
  return true;
}

// ------------------------------------------------------- method registry

// The serving registry's four methods plus the offline-only baselines.
std::unique_ptr<core::TopKAlgorithm> MakeMethod(
    const std::string& name, const judgment::ComparisonOptions& comparison,
    int64_t reference_budget) {
  if (name == "pbr") {
    return std::make_unique<baselines::PbrTopK>(comparison);
  }
  if (name == "crowdbt") {
    baselines::CrowdBt::Options options;
    options.total_budget = reference_budget;
    return std::make_unique<baselines::CrowdBt>(options);
  }
  if (name == "hybrid") {
    baselines::Hybrid::Options options;
    options.total_budget = reference_budget;
    return std::make_unique<baselines::Hybrid>(options);
  }
  if (name == "hybridspr") {
    baselines::HybridSpr::Options options;
    options.spr.comparison = comparison;
    return std::make_unique<baselines::HybridSpr>(options);
  }
  return baselines::MakeAlgorithm(name, comparison);
}

int Fail(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 1;
  if (flags.Has("help")) {
    std::printf(
        "see the header comment of examples/crowdtopk_cli.cc for usage\n");
    return 0;
  }

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int64_t k = flags.GetInt("k", 10);
  const int64_t runs = flags.GetInt("runs", 1);

  // ------------------------------------------------------------- dataset
  std::unique_ptr<data::Dataset> dataset;
  if (flags.Has("histogram_csv")) {
    data::HistogramDataset::Options options;
    for (int b = 1; b <= 10; ++b) options.bin_values.push_back(b);
    auto loaded = data::LoadHistogramCsv(flags.Get("histogram_csv", ""),
                                         "custom", options);
    if (!loaded.ok()) return Fail(loaded.status().ToString().c_str());
    dataset = std::move(*loaded);
  } else if (flags.Has("pairwise_csv")) {
    if (!flags.Has("scores_csv")) {
      return Fail("--pairwise_csv needs --scores_csv for the ground truth");
    }
    auto scores = data::LoadScoresCsv(flags.Get("scores_csv", ""));
    if (!scores.ok()) return Fail(scores.status().ToString().c_str());
    auto loaded = data::LoadPairwiseCsv(flags.Get("pairwise_csv", ""),
                                        "custom", std::move(*scores));
    if (!loaded.ok()) return Fail(loaded.status().ToString().c_str());
    dataset = std::move(*loaded);
  } else {
    dataset = data::MakeByName(flags.Get("dataset", "imdb"), seed);
    if (dataset == nullptr) return Fail("unknown --dataset");
  }

  // Optional random subset.
  std::unique_ptr<data::Dataset> subset_holder;
  const int64_t subset_n = flags.GetInt("n", 0);
  if (subset_n > 0 && subset_n < dataset->num_items()) {
    util::Rng rng(seed ^ 0xc11);
    subset_holder = std::move(dataset);
    dataset = data::RandomSubset(
        static_cast<data::Dataset*>(subset_holder.get()), subset_n, &rng);
  }
  if (k < 1 || k > dataset->num_items()) return Fail("bad --k");

  // ------------------------------------------------------------ options
  judgment::ComparisonOptions comparison;
  comparison.alpha = 1.0 - flags.GetDouble("confidence", 0.98);
  comparison.budget = flags.GetInt("budget", 1000);
  comparison.batch_size = flags.GetInt("batch", 30);
  comparison.min_workload = flags.GetInt("initial", 30);
  comparison.one_sided = flags.Has("one_sided");
  const std::string estimator = flags.Get("estimator", "student");
  if (estimator == "stein") {
    comparison.estimator = judgment::Estimator::kStein;
  } else if (estimator == "hoeffding") {
    comparison.estimator = judgment::Estimator::kHoeffding;
  } else if (estimator != "student") {
    return Fail("unknown --estimator");
  }
  if (comparison.alpha <= 0.0 || comparison.alpha >= 1.0) {
    return Fail("--confidence must be in (0, 1)");
  }

  // Fixed-budget heuristics get ~ an SPR-like budget unless overridden.
  const int64_t heuristic_budget = flags.GetInt(
      "heuristic_budget", dataset->num_items() * 2 * comparison.min_workload);

  std::vector<std::string> methods;
  const std::string method_flag = flags.Get("method", "spr");
  if (method_flag == "all") {
    methods = {"spr",     "tourtree", "heapsort", "quickselect",
               "pbr",     "crowdbt",  "hybrid",   "hybridspr"};
  } else {
    methods.push_back(method_flag);
  }

  // ---------------------------------------------------------------- run
  util::TablePrinter table("crowdtopk: " + dataset->name() + ", N=" +
                           std::to_string(dataset->num_items()) + ", k=" +
                           std::to_string(k));
  table.SetHeader({"Method", "TMC", "Rounds", "NDCG", "Precision"});
  std::vector<crowd::ItemId> last_answer;
  for (const std::string& name : methods) {
    auto method = MakeMethod(name, comparison, heuristic_budget);
    if (method == nullptr) return Fail("unknown --method");
    double tmc = 0.0, rounds = 0.0, ndcg = 0.0, precision = 0.0;
    util::Rng seeder(seed);
    for (int64_t r = 0; r < runs; ++r) {
      crowd::CrowdPlatform platform(dataset.get(), seeder.NextUint64());
      const core::TopKResult result = method->Run(&platform, k);
      tmc += static_cast<double>(result.total_microtasks);
      rounds += static_cast<double>(result.rounds);
      ndcg += metrics::Ndcg(*dataset, result.items, k);
      precision += metrics::PrecisionAtK(*dataset, result.items, k);
      last_answer = result.items;
    }
    const double d = static_cast<double>(runs);
    table.AddRow({method->name(), util::FormatDouble(tmc / d, 0),
                  util::FormatDouble(rounds / d, 0),
                  util::FormatDouble(ndcg / d, 3),
                  util::FormatDouble(precision / d, 3)});
  }
  table.Print();
  if (flags.Has("csv")) {
    if (!table.WriteCsv(flags.Get("csv", ""))) return Fail("cannot write csv");
  }

  std::printf("\nlast answer (best first):");
  for (crowd::ItemId item : last_answer) std::printf(" %d", item);
  std::printf("\ntrue top-%lld           :", static_cast<long long>(k));
  for (crowd::ItemId item : dataset->TrueTopK(k)) std::printf(" %d", item);
  std::printf("\n");
  return 0;
}
