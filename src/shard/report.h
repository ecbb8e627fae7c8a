// Merged reporting for routed batches (docs/SHARDING.md).
//
// RenderMergedTable is the shard-count-invariance witness: it renders, in
// ascending global-query-id order, exactly the columns that are pure
// functions of (master seed, global id) — status, result items,
// precision, microtasks, private rounds, expired/requeued assignments.
// For a fixed master seed the bytes are identical for every shard count,
// with or without shard deaths (as long as every query completes),
// because placement only changes *where* a query runs, never its seed
// streams. Deliberately excluded: the executing
// shard id (placement-dependent by construction) and the timing columns
// (latency, observed rounds, queue wait — functions of what else shared
// the shard's worker pool). Note the judgment cache must be off for
// cross-K byte-identity: cache visibility depends on co-placement.
//
// RenderMergedReport is the full operator's view: routing configuration,
// shard/* counters, a per-shard section in shard-id order, then the
// merged table.

#ifndef CROWDTOPK_SHARD_REPORT_H_
#define CROWDTOPK_SHARD_REPORT_H_

#include <string>
#include <vector>

#include "shard/router.h"

namespace crowdtopk::shard {

// CSV of the pure per-query columns, sorted by global id.
std::string RenderMergedTable(const std::vector<RoutedOutcome>& outcomes);

// Full merged report: config header, router counters, per-shard
// sections (ascending shard id), merged table.
std::string RenderMergedReport(const ShardRouter& router,
                               const std::vector<RoutedOutcome>& outcomes);

}  // namespace crowdtopk::shard

#endif  // CROWDTOPK_SHARD_REPORT_H_
