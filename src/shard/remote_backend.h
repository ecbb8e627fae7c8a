// RemoteShardBackend: an engine shard behind a TCP endpoint.
//
// Wraps one net::Client per shard: a sub-batch is submitted query by
// query (each stamped with its global id via SubmitQuery::seed_stream),
// then results are awaited in submission order. Any transport or server
// failure — a refused dial after the client's bounded retries, a hangup
// mid-await — marks the shard dead and loses the whole sub-batch, which
// is exactly the local backend's failure model, so the router's failover
// path is deployment-agnostic.
//
// Cache sync is not supported across the wire: the judgment cache lives
// inside the far crowdtopk_router process, which already chains it across
// its own batches; shipping entries through the protocol is future work
// (docs/SHARDING.md).

#ifndef CROWDTOPK_SHARD_REMOTE_BACKEND_H_
#define CROWDTOPK_SHARD_REMOTE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/client.h"
#include "shard/backend.h"

namespace crowdtopk::shard {

class RemoteShardBackend : public ShardBackend {
 public:
  explicit RemoteShardBackend(const net::ClientOptions& options)
      : client_(std::make_unique<net::Client>(options)) {}

  util::StatusOr<ShardBatchResult> RunBatch(
      const std::vector<RoutedQuery>& batch) override;

  bool dead() const override { return dead_; }

  bool SupportsCacheSync() const override { return false; }
  std::vector<cache::ExportedEntry> ExportCache() override { return {}; }
  void SetWarmCache(std::vector<cache::ExportedEntry> entries) override {
    (void)entries;
  }

  int64_t batches_run() const override { return batches_run_; }
  int64_t queries_run() const override { return queries_run_; }
  int64_t microtasks() const override { return microtasks_; }

  // Upstream traffic counters, surfaced through the router's StatsReply.
  int64_t client_retries() const { return client_->retries(); }
  int64_t client_redials() const { return client_->redials(); }

 private:
  std::unique_ptr<net::Client> client_;
  bool connected_ = false;
  bool dead_ = false;
  int64_t batches_run_ = 0;
  int64_t queries_run_ = 0;
  int64_t microtasks_ = 0;
};

}  // namespace crowdtopk::shard

#endif  // CROWDTOPK_SHARD_REMOTE_BACKEND_H_
