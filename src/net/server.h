// TCP front-end exposing the serving layer to remote clients.
//
// Architecture (docs/NETWORK.md): the network thread plus whatever the
// engine spawns.
//
//   network thread — the caller of Serve(). A poll(2) event loop over the
//   listening socket, a self-pipe (drain wakeups from signal handlers and
//   result wakeups from the engine), and every live connection. Sockets
//   are non-blocking; each connection owns a FrameReader and a bounded
//   write buffer. Backpressure: a connection whose write buffer passes the
//   high watermark stops being read until it drains, and one that passes
//   the hard cap is closed as a slow consumer. Connections idle past
//   idle_timeout_ms with no in-flight queries are closed. When the
//   connection table is full, a new connection is greeted with an
//   UNAVAILABLE error frame and closed.
//
//   engine — owns query execution (net/engine.h), built by the required
//   ServerOptions::engine_factory. crowdtopk_router injects
//   shard::RouterEngine, whose K = 1 default is the single-process server.
//
// Graceful drain: RequestDrain() is async-signal-safe (an atomic store and
// a self-pipe write), so a SIGTERM handler may call it directly. Draining
// stops the acceptor, answers new SubmitQuery frames with UNAVAILABLE,
// finishes every already-accepted query, flushes the results, and returns
// from Serve(). Queries still waiting in the engine queue when
// drain_timeout_ms expires are rejected with UNAVAILABLE; the batch in
// flight always runs to completion.

#ifndef CROWDTOPK_NET_SERVER_H_
#define CROWDTOPK_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cache/judgment_cache.h"
#include "core/topk_algorithm.h"
#include "data/dataset.h"
#include "judgment/comparison.h"
#include "net/engine.h"
#include "net/protocol.h"
#include "serve/batch_scheduler.h"
#include "util/clock.h"
#include "util/status.h"

namespace crowdtopk::net {

// Resolves a SubmitQuery dataset name; nullptr = unknown name (the client
// gets an INVALID_ARGUMENT error frame). Results are memoized per name.
using DatasetFactory = std::function<std::unique_ptr<data::Dataset>(
    const std::string& name, uint64_t seed)>;

// Resolves a SubmitQuery algorithm name under the query's comparison
// options (alpha, budget); nullptr = unknown name. Memoized per
// (name, alpha, budget); instances must be concurrent_runs_safe().
using AlgorithmFactory = std::function<std::unique_ptr<core::TopKAlgorithm>(
    const std::string& name, const judgment::ComparisonOptions& options)>;

// What a null ServerOptions factory falls back to: data::MakeByName and
// baselines::MakeAlgorithm.
DatasetFactory DefaultDatasetFactory();
AlgorithmFactory DefaultAlgorithmFactory();

struct ServerOptions;

// Builds the engine the front-end drives (net/engine.h). `wake` must be
// called after posting completions so the poll loop picks them up; it is
// async-safe (a self-pipe write).
using EngineFactory = std::function<std::unique_ptr<Engine>(
    const ServerOptions& options, std::function<void()> wake)>;

struct ServerOptions {
  // TCP port on 127.0.0.1; 0 (the default) binds a kernel-assigned
  // ephemeral port — read it back with port() (the CLI prints it, the
  // smoke script parses it), so concurrent servers never race on a fixed
  // port. Set a positive port only for a long-lived deployment.
  int64_t port = 0;
  int64_t max_connections = 64;
  // Connections with no traffic and no in-flight queries for this long
  // are closed; <= 0 disables.
  int64_t idle_timeout_ms = 60000;
  // Drain budget: queries still queued (not yet batched) past it are
  // rejected instead of executed.
  int64_t drain_timeout_ms = 30000;
  // Admission bound on the engine queue; arrivals past it are refused
  // with a QUEUE_FULL error frame. < 0 = unbounded.
  int64_t max_queue = 256;

  // Engine: the serve::QueryService settings each batch runs under.
  uint64_t seed = 20170514;
  serve::ScheduleOptions schedule;
  int64_t max_inflight = 16;
  int64_t jobs = 1;
  // Judgment cache; committed entries chain across batches.
  cache::CacheOptions cache;

  // Non-empty: write net/* telemetry counters (per connection and
  // aggregate) to <trace_dir>/net_server.trace.jsonl when Serve returns.
  std::string trace_dir;

  // Time source for idle timeouts and the drain deadline. Null = wall
  // clock. The simulation harness (src/sim) injects a util::SimClock so
  // timeout behaviour is script-controlled; with a non-null clock the
  // event loop polls on a short wall tick to observe simulated-time
  // advances promptly.
  const util::Clock* clock = nullptr;

  // Test injection points; null picks the defaults above.
  DatasetFactory dataset_factory;
  AlgorithmFactory algorithm_factory;
  // Execution engine behind the front-end; required (Start fails without
  // one). crowdtopk_router injects shard::RouterEngine.
  EngineFactory engine_factory;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds 127.0.0.1:port, starts listening, and builds the engine.
  // InvalidArgument when options.engine_factory is null.
  util::Status Start();

  // Port actually bound (meaningful after Start; equals options.port
  // unless that was 0).
  int port() const { return port_; }

  // Runs the event loop on the calling thread until a drain completes.
  // Call Start() first.
  void Serve();

  // Begins a graceful drain; async-signal-safe (atomic store + pipe
  // write), so SIGTERM handlers may call it directly. Idempotent.
  void RequestDrain();

  // Live counter snapshot; safe from any thread.
  StatsReply Stats() const;

 private:
  struct Connection;
  class Impl;
  std::unique_ptr<Impl> impl_;
  int port_ = 0;
};

}  // namespace crowdtopk::net

#endif  // CROWDTOPK_NET_SERVER_H_
