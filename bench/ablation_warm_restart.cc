// Ablation (durable state): TMC saved by warm-restarting the judgment
// cache from a previous generation's snapshot (src/persist,
// docs/PERSISTENCE.md).
//
// Workload: a "day 1" serving replay of Q top-k queries over n-item
// subsets of a shared universe, cache on, persistence on — it leaves a
// final snapshot carrying the full cache image. Then the identical trace
// replays twice as fresh generations: cold (empty cache) and warm (cache
// preloaded from the day-1 snapshot, the --warm code path). Reported:
// total microtasks, cache hits, restored pairs, and the warm saving.
//
// Expected: the warm replay's TMC collapses towards the marginal cost of
// confirming cached verdicts (>= 50% saved at default knobs), because
// every pair the day-1 run bought is served from the restored image.
//
// Knobs (bench/harness.h has the shared ones):
//   CROWDTOPK_CACHE_QUERIES   queries per replay            (default 12)
//   CROWDTOPK_CACHE_SUBSET    items per query subset        (default 40)
//   CROWDTOPK_CACHE_UNIVERSE  items in the shared universe  (default 80)
//   CROWDTOPK_CACHE_K         top-k per query               (default 10)
//   CROWDTOPK_RUNS, CROWDTOPK_SEED, CROWDTOPK_JOBS as everywhere else.

#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "bench/harness.h"
#include "data/subset_dataset.h"
#include "persist/recovery.h"
#include "serve/query_service.h"
#include "util/check.h"

int main() {
  using namespace crowdtopk;
  const int64_t runs = util::BenchRuns(3);
  const uint64_t seed = util::BenchSeed();
  const int64_t queries = util::GetEnvInt64("CROWDTOPK_CACHE_QUERIES", 12);
  const int64_t subset_n = util::GetEnvInt64("CROWDTOPK_CACHE_SUBSET", 40);
  const int64_t universe_n = util::GetEnvInt64("CROWDTOPK_CACHE_UNIVERSE", 80);
  const int64_t k = util::GetEnvInt64("CROWDTOPK_CACHE_K", 10);
  bench::PrintPreamble("Ablation: warm restart from a durable snapshot",
                       runs, seed);
  std::printf(
      "%lld queries/replay over %lld-item subsets of a %lld-item universe, "
      "k=%lld; a persisted day-1 run, then cold vs snapshot-warmed restarts "
      "of the identical trace\n\n",
      static_cast<long long>(queries), static_cast<long long>(subset_n),
      static_cast<long long>(universe_n), static_cast<long long>(k));

  const judgment::ComparisonOptions comparison =
      bench::DefaultComparisonOptions();
  const auto methods = bench::ConfidenceAwareMethods(comparison);

  // Record: {tmc_day1, tmc_cold, tmc_warm, hits_warm, restored}.
  const std::vector<double> mean = bench::AverageOver(
      runs, seed, [&](int64_t, uint64_t run_seed) -> std::vector<double> {
        util::Rng rng(run_seed);
        const auto universe = data::MakeUniformLadder(universe_n, 10.0, 2.0);
        std::vector<std::unique_ptr<data::SubsetDataset>> subsets;
        for (int64_t d = 0; d < queries; ++d) {
          subsets.push_back(
              data::RandomSubset(universe.get(), subset_n, &rng));
        }
        std::vector<serve::QueryRequest> requests(queries);
        for (int64_t q = 0; q < queries; ++q) {
          const data::SubsetDataset* subset = subsets[q].get();
          requests[q].algorithm = methods[q % methods.size()].get();
          requests[q].dataset = subset;
          requests[q].k = k;
          requests[q].cache_universe = 0;
          requests[q].cache_item_ids = subset->parent_ids();
        }
        const std::vector<double> arrivals(queries, 0.0);

        const auto replay = [&](const std::string& persist_dir,
                                const std::vector<cache::ExportedEntry>& warm,
                                double* tmc, double* hits, double* restored) {
          serve::ServeOptions options;
          options.max_inflight = 1;  // FIFO: maximal reuse window
          options.jobs = 1;
          options.seed = run_seed;
          options.cache.enabled = true;
          options.persist.dir = persist_dir;
          options.persist.wal_fsync = false;  // bench, not durability test
          serve::QueryService service(options);
          service.RestoreCache(warm);
          const std::vector<serve::QueryOutcome> outcomes =
              service.Replay(requests, arrivals);
          CROWDTOPK_CHECK(service.persist_status().ok());
          *tmc = *hits = 0.0;
          for (const serve::QueryOutcome& o : outcomes) {
            *tmc += static_cast<double>(o.total_microtasks);
            *hits += static_cast<double>(o.cache_hits + o.cache_inferred);
          }
          *restored = static_cast<double>(service.cache_stats().restored);
        };

        // Day 1: persist into a private per-run scratch directory, so runs
        // executing at once (and concurrent bench processes) never share one.
        const char* tmpdir = std::getenv("TMPDIR");
        std::string dir =
            std::string(tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir
                                                               : "/tmp") +
            "/crowdtopk_warm_restart.XXXXXX";
        CROWDTOPK_CHECK(mkdtemp(dir.data()) != nullptr);
        double tmc_day1, hits_day1, restored_day1;
        replay(dir, {}, &tmc_day1, &hits_day1, &restored_day1);

        persist::SnapshotData snapshot;
        CROWDTOPK_CHECK(
            persist::LoadLatestSnapshot(dir, &snapshot, nullptr).ok());

        double tmc_cold, hits_cold, restored_cold;
        replay("", {}, &tmc_cold, &hits_cold, &restored_cold);
        double tmc_warm, hits_warm, restored_warm;
        replay("", snapshot.cache_entries, &tmc_warm, &hits_warm,
               &restored_warm);

        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
        return {tmc_day1, tmc_cold, tmc_warm, hits_warm, restored_warm};
      });

  util::TablePrinter table("TMC: cold restart vs snapshot-warmed restart");
  table.SetHeader({"variant", "TMC", "cache hits", "restored", "saved %"});
  table.AddRow({"day 1 (persisted)", util::FormatDouble(mean[0], 0), "-", "-",
                "-"});
  table.AddRow({"cold restart", util::FormatDouble(mean[1], 0), "-", "0",
                "0.0"});
  const double saved =
      mean[1] > 0.0 ? 100.0 * (mean[1] - mean[2]) / mean[1] : 0.0;
  table.AddRow({"warm restart", util::FormatDouble(mean[2], 0),
                util::FormatDouble(mean[3], 0),
                util::FormatDouble(mean[4], 0),
                util::FormatDouble(saved, 1)});
  table.Print();
  std::printf(
      "\nexpected: the warm restart serves day-1 pairs from the restored\n"
      "snapshot image and saves >= 50%% of the cold restart's TMC\n");
  return 0;
}
