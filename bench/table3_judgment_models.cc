// Table 3: accuracy and workload of the three judgment models.
#include <cmath>
//
// 30 popular movies (435 pairs); COMP(o_i, o_j) runs with B = infinity at
// confidence levels {0.95, 0.98, 0.99} under:
//   - pairwise binary judgments + Hoeffding estimation (Busa-Fekete [8]),
//   - pairwise preference judgments + Student's t (Algorithm 1),
//   - pairwise preference judgments + Stein's estimation (Algorithm 5),
// plus the graded judgment model at fixed per-item workloads.

#include <cstdio>
#include <numeric>
#include <vector>

#include "bench/harness.h"
#include "judgment/comparison.h"
#include "judgment/graded.h"

namespace {

using namespace crowdtopk;

struct ModelRow {
  double workload = 0.0;
  double accuracy = 0.0;
};

ModelRow EvaluatePairwiseModel(const data::Dataset& dataset,
                               const std::vector<crowd::ItemId>& items,
                               judgment::Estimator estimator, double alpha,
                               int64_t runs, uint64_t seed) {
  judgment::ComparisonOptions options;
  options.alpha = alpha;
  options.budget = int64_t{1} << 20;  // "B = infinity" (never binding here)
  options.min_workload = 30;
  options.batch_size = 1;  // per-sample stopping, as in Algorithm 1
  options.estimator = estimator;

  crowd::CrowdPlatform platform(&dataset, seed);
  double total_workload = 0.0;
  double correct = 0.0;
  double decided = 0.0;
  for (size_t a = 0; a < items.size(); ++a) {
    for (size_t b = a + 1; b < items.size(); ++b) {
      for (int64_t r = 0; r < runs; ++r) {
        judgment::ComparisonSession session(items[a], items[b], &options);
        // Run without polluting the latency counter (Table 3 is not a
        // latency experiment).
        while (!session.Finished()) session.Step(&platform, 256);
        total_workload += static_cast<double>(session.workload());
        const bool truth_a = dataset.TrueBetter(items[a], items[b]);
        const auto outcome = session.outcome();
        if (outcome != crowd::ComparisonOutcome::kTie) {
          decided += 1.0;
          const bool said_a = outcome == crowd::ComparisonOutcome::kLeftWins;
          if (said_a == truth_a) correct += 1.0;
        }
      }
    }
  }
  const double pairs =
      static_cast<double>(items.size() * (items.size() - 1) / 2) *
      static_cast<double>(runs);
  ModelRow row;
  row.workload = total_workload / pairs;
  row.accuracy = decided > 0 ? correct / decided : 0.0;
  return row;
}

ModelRow EvaluateGradedModel(const data::Dataset& dataset,
                             const std::vector<crowd::ItemId>& items,
                             int64_t workload_per_item, int64_t runs,
                             uint64_t seed) {
  crowd::CrowdPlatform platform(&dataset, seed);
  double correct = 0.0;
  double total_pairs = 0.0;
  for (int64_t r = 0; r < runs; ++r) {
    const std::vector<double> grades = judgment::CollectMeanGrades(
        items, workload_per_item, /*batch_size=*/1024, &platform);
    for (size_t a = 0; a < items.size(); ++a) {
      for (size_t b = a + 1; b < items.size(); ++b) {
        const bool truth_a = dataset.TrueBetter(items[a], items[b]);
        const bool said_a = grades[a] > grades[b];
        if (said_a == truth_a) correct += 1.0;
        total_pairs += 1.0;
      }
    }
  }
  ModelRow row;
  row.workload = static_cast<double>(workload_per_item);
  row.accuracy = correct / total_pairs;
  return row;
}

}  // namespace

int main() {
  const int64_t runs = util::BenchRuns(3);
  const uint64_t seed = util::BenchSeed();
  bench::PrintPreamble(
      "Table 3: accuracy and workload of different judgment models\n"
      "(30 popular IMDb-like movies, 435 pairs, B = infinity, I = 30;\n"
      " paper: preference needs 5.3-10.8x fewer microtasks than binary)",
      runs, seed);

  auto imdb = data::MakeImdbLike(seed);
  // 30 random popular movies, as in Section 3.2. The paper's pool (votes >
  // 100k) has visibly separated weighted ranks; we enforce a minimal
  // pairwise score gap so no single statistically-identical pair dominates
  // the B = infinity averages.
  util::Rng rng(seed ^ 0x7ab1e3);
  std::vector<crowd::ItemId> all(imdb->num_items());
  std::iota(all.begin(), all.end(), 0);
  rng.Shuffle(&all);
  constexpr double kMinGap = 0.03;  // on the 1..10 rating scale
  std::vector<crowd::ItemId> items;
  for (crowd::ItemId candidate : all) {
    bool spaced = true;
    for (crowd::ItemId chosen : items) {
      if (std::abs(imdb->TrueScore(candidate) - imdb->TrueScore(chosen)) <
          kMinGap) {
        spaced = false;
        break;
      }
    }
    if (spaced) items.push_back(candidate);
    if (items.size() == 30) break;
  }

  const std::vector<double> confidences = {0.95, 0.98, 0.99};

  util::TablePrinter table("Pairwise models");
  table.SetHeader({"Model", "Est. by", "Metric", "0.95", "0.98", "0.99"});
  struct Config {
    const char* model;
    const char* estimator_name;
    judgment::Estimator estimator;
  };
  const std::vector<Config> configs = {
      {"Binary", "Hoeffding", judgment::Estimator::kHoeffding},
      {"Preference", "Student", judgment::Estimator::kStudent},
      {"Preference", "Stein", judgment::Estimator::kStein},
  };
  for (const Config& config : configs) {
    std::vector<std::string> work_row = {config.model, config.estimator_name,
                                         "Work."};
    std::vector<std::string> acc_row = {config.model, config.estimator_name,
                                        "Acc."};
    for (double confidence : confidences) {
      const ModelRow row = EvaluatePairwiseModel(
          *imdb, items, config.estimator, 1.0 - confidence, runs, seed + 1);
      work_row.push_back(util::FormatDouble(row.workload, 1));
      acc_row.push_back(util::FormatDouble(row.accuracy, 3));
    }
    table.AddRow(work_row);
    table.AddRow(acc_row);
  }
  table.Print();

  util::TablePrinter graded("Graded model (fixed per-item workloads)");
  graded.SetHeader({"Model", "Metric", "100", "1000", "10000"});
  std::vector<std::string> acc_row = {"Graded", "Acc."};
  for (int64_t workload : {100, 1000, 10000}) {
    const ModelRow row =
        EvaluateGradedModel(*imdb, items, workload, runs, seed + 2);
    acc_row.push_back(util::FormatDouble(row.accuracy, 3));
  }
  graded.AddRow(acc_row);
  std::printf("\n");
  graded.Print();
  return 0;
}
