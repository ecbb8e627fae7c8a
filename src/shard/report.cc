#include "shard/report.h"

#include <algorithm>

#include "util/table.h"

namespace crowdtopk::shard {
namespace {

std::vector<const RoutedOutcome*> SortedByGlobalId(
    const std::vector<RoutedOutcome>& outcomes) {
  std::vector<const RoutedOutcome*> sorted(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) sorted[i] = &outcomes[i];
  std::sort(sorted.begin(), sorted.end(),
            [](const RoutedOutcome* a, const RoutedOutcome* b) {
              return a->query.global_id < b->query.global_id;
            });
  return sorted;
}

}  // namespace

std::string RenderMergedTable(const std::vector<RoutedOutcome>& outcomes) {
  std::string out =
      "gid,dataset,algo,k,status,tmc,rounds_private,expired,requeued,"
      "precision,items\n";
  for (const RoutedOutcome* o : SortedByGlobalId(outcomes)) {
    std::string items;
    for (size_t i = 0; i < o->result.items.size(); ++i) {
      if (i > 0) items += ';';
      items += std::to_string(o->result.items[i]);
    }
    util::AppendFormat(
        &out, "%lld,%s,%s,%lld,%s,%lld,%lld,%lld,%lld,%.4f,%s\n",
        static_cast<long long>(o->query.global_id), o->query.dataset.c_str(),
        o->query.algo.c_str(), static_cast<long long>(o->query.k),
        util::StatusCodeName(o->result.status.code()),
        static_cast<long long>(o->result.total_microtasks),
        static_cast<long long>(o->result.rounds_private),
        static_cast<long long>(o->result.expired_assignments),
        static_cast<long long>(o->result.requeued_assignments),
        o->result.precision_at_k, items.c_str());
  }
  return out;
}

std::string RenderMergedReport(const ShardRouter& router,
                               const std::vector<RoutedOutcome>& outcomes) {
  const RouterCounters& c = router.counters();
  std::string out;
  util::AppendFormat(&out,
                     "# crowdtopk shard router: shards=%lld healthy=%lld\n",
                     static_cast<long long>(router.num_shards()),
                     static_cast<long long>(router.healthy_shards()));
  util::AppendFormat(
      &out,
      "# counters: routed=%lld waves=%lld shard_batches=%lld "
      "shard_failures=%lld redispatched=%lld repurchased_microtasks=%lld "
      "exhausted=%lld cache_sync_rounds=%lld cache_entries_gossiped=%lld\n",
      static_cast<long long>(c.routed_queries),
      static_cast<long long>(c.waves),
      static_cast<long long>(c.shard_batches),
      static_cast<long long>(c.shard_failures),
      static_cast<long long>(c.redispatched_queries),
      static_cast<long long>(c.repurchased_microtasks),
      static_cast<long long>(c.exhausted_queries),
      static_cast<long long>(c.cache_sync_rounds),
      static_cast<long long>(c.cache_entries_gossiped));
  for (int64_t s = 0; s < router.num_shards(); ++s) {
    const ShardBackend& backend = router.backend(s);
    util::AppendFormat(
        &out, "# shard %lld: %s batches=%lld queries=%lld microtasks=%lld\n",
        static_cast<long long>(s), backend.dead() ? "dead" : "healthy",
        static_cast<long long>(backend.batches_run()),
        static_cast<long long>(backend.queries_run()),
        static_cast<long long>(backend.microtasks()));
  }
  out += RenderMergedTable(outcomes);
  return out;
}

}  // namespace crowdtopk::shard
