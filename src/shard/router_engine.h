// RouterEngine: the shard router as a net::Engine — the only one.
//
// crowdtopk_router injects this through ServerOptions::engine_factory
// behind net::Server's socket front-end (handshake, admission,
// backpressure, graceful drain). Accepted submissions queue FIFO; the
// engine thread drains the queue into one batch and hands it to the
// ShardRouter, which scatters it over K shards and runs the failover
// waves (router.h). At K = 1 this is the single-process network server.
//
// Every query carries a global id that keys its judgment/latency streams:
// the client's SubmitQuery::seed_stream stamp when it is >= 0 (a front
// router dialing this process as a remote shard), else the wire query id
// assigned here at submission, monotonically. Either way the merged table
// (shard/report.h) can be byte-diffed across shard counts.
//
// Deployment: with `ports` empty the engine spawns `shards` in-process
// LocalShardBackends (dataset/algorithm instances resolved once, shared
// by all shards — both are safe for concurrent runs); with `ports` set it
// dials one RemoteShardBackend per endpoint.

#ifndef CROWDTOPK_SHARD_ROUTER_ENGINE_H_
#define CROWDTOPK_SHARD_ROUTER_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/engine.h"
#include "net/server.h"
#include "shard/report.h"
#include "shard/router.h"

namespace crowdtopk::shard {

struct RouterEngineConfig {
  // In-process shard count; ignored when `ports` is non-empty.
  int64_t shards = 1;
  // Remote deployment: one crowdtopk_router endpoint per shard on
  // 127.0.0.1. Empty = in-process shards.
  std::vector<int64_t> ports;
  Policy policy = Policy::kRendezvous;
  int64_t max_redispatch = 2;
  bool cache_sync = false;
  // Fault injection (CROWDTOPK_SHARD_FAIL/_FAIL_AFTER): local shard
  // `fail_shard` dies while executing its `fail_at_batch`-th sub-batch.
  int64_t fail_shard = -1;
  int64_t fail_at_batch = 1;
};

class RemoteShardBackend;

class RouterEngine : public net::Engine {
 public:
  RouterEngine(const net::ServerOptions& options,
               const RouterEngineConfig& config,
               std::function<void()> wake);
  ~RouterEngine() override;

  util::StatusOr<int64_t> Submit(int64_t conn_id,
                                 const net::SubmitQuery& spec) override;
  net::QueryState State(int64_t query_id) const override;
  bool Cancel(int64_t query_id, int64_t* submitter_conn) override;
  void BeginDrain() override;
  void AbortQueued() override;
  std::vector<net::Completion> TakeCompletions() override;
  bool Drained() const override;
  int64_t queued() const override;
  int64_t batches() const override;
  int64_t upstream_retries() const override;
  int64_t upstream_redials() const override;

  // Merged report (shard/report.h): cumulative counters, and a table of
  // the last 4096 routed queries. Call after the drain completes;
  // the CLI writes it on exit and the smoke script byte-diffs it across
  // runs and shard counts.
  std::string MergedReport() const;
  RouterCounters counters() const;

  // Writes shard/* counters to <trace_dir>/shard_router.trace.jsonl; the
  // CLI calls it after Serve returns. No-op without a trace_dir.
  void DumpTrace() const;

 private:
  // Finished queries kept for State() and MergedReport(); older ones are
  // forgotten, so memory stays bounded however long the process serves.
  static constexpr size_t kRemembered = 4096;

  struct Record {
    int64_t conn_id = 0;
    RoutedQuery query;
    net::QueryState state = net::QueryState::kQueued;
  };

  struct Done {
    int64_t query_id = 0;  // wire id
    RoutedOutcome outcome;
  };

  void ThreadMain();
  // Resolves the shared dataset/algorithm instances and the per-dataset
  // universe id for an in-process deployment; null on unknown names.
  const data::Dataset* ResolveDatasetLocked(const std::string& name,
                                            int64_t* universe);
  core::TopKAlgorithm* ResolveAlgorithmLocked(const net::SubmitQuery& spec);
  void RememberDoneLocked(int64_t id, const RoutedOutcome& outcome);

  const net::ServerOptions options_;
  const RouterEngineConfig config_;
  const net::DatasetFactory dataset_factory_;
  const net::AlgorithmFactory algorithm_factory_;
  const std::function<void()> wake_;
  const bool remote_;

  std::unique_ptr<ShardRouter> router_;
  // Remote backends, for the retry/redial sums (owned by router_).
  std::vector<const RemoteShardBackend*> remote_backends_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool draining_ = false;
  bool running_ = false;
  int64_t next_query_id_ = 0;
  int64_t batches_ = 0;
  std::deque<int64_t> queue_;
  std::unordered_map<int64_t, Record> records_;
  std::unordered_set<int64_t> done_ids_;
  std::deque<Done> done_;  // the last kRemembered, oldest first
  std::vector<net::Completion> completions_;
  // Upstream client counters, snapshotted after each routed batch so the
  // network thread can report them mid-run without racing the clients.
  int64_t cached_retries_ = 0;
  int64_t cached_redials_ = 0;

  // In-process resolution state (names -> shared instances); universes
  // are assigned per distinct dataset name in first-seen order, the same
  // rule serve::QueryService applies per distinct pointer.
  std::unordered_map<std::string, std::unique_ptr<data::Dataset>> datasets_;
  std::unordered_map<std::string, int64_t> universes_;
  std::unordered_map<std::string, std::unique_ptr<core::TopKAlgorithm>>
      algorithms_;

  std::thread thread_;  // last: joins in the destructor before members die
};

}  // namespace crowdtopk::shard

#endif  // CROWDTOPK_SHARD_ROUTER_ENGINE_H_
