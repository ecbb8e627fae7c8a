#include "shard/local_backend.h"

namespace crowdtopk::shard {

LocalShardBackend::LocalShardBackend(const Options& options)
    : options_(options),
      service_({.schedule = options.schedule,
                .max_inflight = options.max_inflight,
                // Unbounded: admission control happened at the router. A
                // shard-local queue bound would reject queries based on
                // *placement*, breaking the shard-count-invariance of the
                // merged result table.
                .max_queue = -1,
                .jobs = options.jobs,
                // Constant master seed: every judgment/latency stream is
                // keyed by the stamped global id, never by which shard or
                // batch ran the query.
                .seed = options.seed,
                // Traces and persistence off, as repeat Replays require.
                .trace_dir = "",
                .cache = options.cache,
                .persist = {}}) {}

util::StatusOr<ShardBatchResult> LocalShardBackend::RunBatch(
    const std::vector<RoutedQuery>& batch) {
  if (dead_) {
    return util::Status::Unavailable("shard is dead");
  }
  if (options_.fail_at_batch >= 1 &&
      batches_run_ + 1 >= options_.fail_at_batch) {
    // The injected death loses the whole sub-batch, like a real crash
    // between dispatch and reply.
    dead_ = true;
    return util::Status::Unavailable("shard killed by fault injection");
  }

  std::vector<serve::QueryRequest> requests(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const RoutedQuery& q = batch[i];
    requests[i].algorithm = q.algorithm.get();
    requests[i].dataset = q.dataset_ptr;
    requests[i].k = q.k;
    requests[i].cache_universe = q.universe;
    requests[i].seed_stream = q.global_id;
  }

  const std::vector<serve::QueryOutcome> outcomes =
      service_.Replay(requests, std::vector<double>(requests.size(), 0.0));

  ShardBatchResult result;
  result.results.resize(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const serve::QueryOutcome& o = outcomes[i];
    ShardQueryResult& r = result.results[i];
    r.global_id = batch[i].global_id;
    r.status = o.status;
    r.items = o.items;
    r.precision_at_k = o.precision_at_k;
    r.total_microtasks = o.total_microtasks;
    r.rounds_private = o.rounds_private;
    r.expired_assignments = o.expired_assignments;
    r.requeued_assignments = o.requeued_assignments;
    r.rounds_observed = o.rounds_observed;
    r.latency_seconds = o.latency_seconds;
    r.queue_wait_seconds = o.start_seconds - o.arrival_seconds;
    result.microtasks += o.total_microtasks;
  }
  ++batches_run_;
  queries_run_ += static_cast<int64_t>(batch.size());
  microtasks_ += result.microtasks;
  return result;
}

}  // namespace crowdtopk::shard
