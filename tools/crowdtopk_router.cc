// crowdtopk_router: the network server (src/net, docs/NETWORK.md) and its
// sharded scale-out (src/shard, docs/SHARDING.md). Binds
// 127.0.0.1:CROWDTOPK_NET_PORT, speaks the framed wire protocol of
// src/net/protocol.h, and executes every batch through a
// shard::RouterEngine — a deterministic router over K engine shards:
// CROWDTOPK_SHARDS in-process engines (default 1, the single-process
// server), or one remote crowdtopk_router per CROWDTOPK_SHARD_PORTS
// endpoint. For a fixed master seed the merged per-query result table is
// byte-identical for every shard count; a shard that dies mid-batch loses
// its sub-batch and the router re-dispatches the queries to survivors
// (bounded by CROWDTOPK_SHARD_REDISPATCH).
//
// SIGTERM / SIGINT start a graceful drain: the acceptor stops, new
// submissions are refused with UNAVAILABLE, every admitted query finishes
// (or fails over), results are flushed, then the process exits 0. The
// bound port is printed on stdout — with CROWDTOPK_NET_PORT=0 that is the
// only way to learn the ephemeral port, and the smoke scripts parse it.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/server.h"
#include "shard/router_engine.h"
#include "util/env.h"
#include "util/file_io.h"

namespace {

using namespace crowdtopk;

constexpr char kHelp[] = R"(crowdtopk_router [--help]

Serves crowdsourced top-k queries over TCP on 127.0.0.1 (wire protocol:
docs/NETWORK.md), routed over K engine shards (sharding model:
docs/SHARDING.md); K = 1 by default. SIGTERM/SIGINT drain gracefully:
admitted queries finish (failing over past dead shards), new ones are
refused with UNAVAILABLE.

Sharding knobs
  CROWDTOPK_SHARDS            in-process engine shards       (default 1)
  CROWDTOPK_SHARD_POLICY      rendezvous | modulo   (default rendezvous)
  CROWDTOPK_SHARD_PORTS       comma-separated ports of crowdtopk_router
                              processes started with the same seed;
                              overrides CROWDTOPK_SHARDS with one remote
                              shard per endpoint          (default unset)
  CROWDTOPK_SHARD_CACHE_SYNC  =1 gossip judgment-cache entries between
                              shards at batch barriers       (default 0)
  CROWDTOPK_SHARD_REDISPATCH  failover re-dispatches per query (default 2)
  CROWDTOPK_SHARD_FAIL        fault injection: this shard id dies ...
  CROWDTOPK_SHARD_FAIL_AFTER  ... while executing its N-th batch (default 1)
  CROWDTOPK_ROUTER_REPORT     write the merged per-query report (pure
                              columns, global-id order, the last 4096
                              queries) here on drain

Network knobs
  CROWDTOPK_NET_PORT             TCP port; 0 = ephemeral    (default 0)
  CROWDTOPK_NET_MAX_CONNS        connection bound           (default 64)
  CROWDTOPK_NET_IDLE_TIMEOUT_MS  idle-connection close, <=0 off (60000)
  CROWDTOPK_NET_DRAIN_TIMEOUT_MS drain budget on SIGTERM    (default 30000)
  CROWDTOPK_NET_MAX_QUEUE        admission bound, <0 = inf  (default 256)

Engine knobs (per shard; same meaning as crowdtopk_serve)
  CROWDTOPK_SERVE_WORKERS   crowd worker slots W per round   (default 100)
  CROWDTOPK_SERVE_ETA       per-pair batch cap eta           (default 30)
  CROWDTOPK_SERVE_INFLIGHT  max concurrently served queries  (default 16)
  CROWDTOPK_SERVE_DEADLINE  assignment deadline seconds      (default 60)
  CROWDTOPK_SERVE_ABANDON   worker abandonment probability   (default 0.03)
  CROWDTOPK_SERVE_ATTEMPTS  dispatch attempts per microtask  (default 4)
  CROWDTOPK_CACHE, CROWDTOPK_CACHE_CAPACITY, CROWDTOPK_CACHE_TRANSITIVITY
                            per-shard judgment cache (cache-sync gossips
                            committed entries between shards)
  CROWDTOPK_SEED            master seed                (default 20170514)
  CROWDTOPK_JOBS            wave-simulation threads, 0 = hw   (default 1)
  CROWDTOPK_TRACE=1, CROWDTOPK_TRACE_DIR  net/* and shard/* counters
                            (net_server.trace.jsonl,
                             shard_router.trace.jsonl on exit)

Exit codes: 0 clean drain, 2 startup failure.
)";

net::Server* g_server = nullptr;

// Only async-signal-safe work here: RequestDrain is an atomic store plus a
// self-pipe write.
void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

// Parses CROWDTOPK_SHARD_PORTS ("7001,7002,..."); false on any malformed
// field, so a typo refuses startup instead of silently dropping a shard.
bool ParsePorts(const std::string& value, std::vector<int64_t>* ports) {
  std::string field;
  for (size_t i = 0; i <= value.size(); ++i) {
    if (i < value.size() && value[i] != ',') {
      field += value[i];
      continue;
    }
    if (field.empty()) return false;
    char* end = nullptr;
    const long long port = std::strtoll(field.c_str(), &end, 10);
    if (end == field.c_str() || *end != '\0' || port <= 0 || port > 65535) {
      return false;
    }
    ports->push_back(port);
    field.clear();
  }
  return !ports->empty();
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf("%s", kHelp);
      return 0;
    }
    std::fprintf(stderr, "unknown argument %s (try --help)\n", argv[i]);
    return 2;
  }

  net::ServerOptions options;
  options.port = util::NetPort();
  options.max_connections = util::NetMaxConns();
  options.idle_timeout_ms = util::NetIdleTimeoutMs();
  options.drain_timeout_ms = util::NetDrainTimeoutMs();
  options.max_queue = util::GetEnvInt64("CROWDTOPK_NET_MAX_QUEUE", 256);
  options.seed = util::BenchSeed();
  options.schedule.crowd_workers =
      util::GetEnvInt64("CROWDTOPK_SERVE_WORKERS", 100);
  options.schedule.per_pair_batch =
      util::GetEnvInt64("CROWDTOPK_SERVE_ETA", 30);
  options.schedule.deadline_seconds =
      util::GetEnvDouble("CROWDTOPK_SERVE_DEADLINE", 60.0);
  options.schedule.abandon_probability =
      util::GetEnvDouble("CROWDTOPK_SERVE_ABANDON", 0.03);
  options.schedule.max_attempts =
      util::GetEnvInt64("CROWDTOPK_SERVE_ATTEMPTS", 4);
  options.max_inflight = util::GetEnvInt64("CROWDTOPK_SERVE_INFLIGHT", 16);
  options.jobs = util::BenchJobs();
  options.cache.enabled = util::CacheEnabled();
  options.cache.capacity = util::CacheCapacity();
  options.cache.transitivity = util::CacheTransitivity();
  if (util::TraceEnabled()) options.trace_dir = util::TraceDir();

  shard::RouterEngineConfig config;
  config.shards = util::ShardCount();
  config.policy = shard::ParsePolicy(util::ShardPolicy());
  config.cache_sync = util::ShardCacheSync();
  config.max_redispatch = util::ShardRedispatch();
  config.fail_shard = util::ShardFail();
  config.fail_at_batch = util::ShardFailAfterBatches();
  const std::string ports_env =
      util::GetEnvString("CROWDTOPK_SHARD_PORTS", "");
  if (!ports_env.empty() && !ParsePorts(ports_env, &config.ports)) {
    std::fprintf(stderr,
                 "crowdtopk_router: CROWDTOPK_SHARD_PORTS='%s' is not a "
                 "comma-separated port list\n",
                 ports_env.c_str());
    return 2;
  }

  shard::RouterEngine* engine = nullptr;
  options.engine_factory = [&config, &engine](
                               const net::ServerOptions& server_options,
                               std::function<void()> wake) {
    auto built = std::make_unique<shard::RouterEngine>(
        server_options, config, std::move(wake));
    engine = built.get();
    return built;
  };

  net::Server server(options);
  const util::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "crowdtopk_router: %s\n", status.ToString().c_str());
    return 2;
  }

  g_server = &server;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // The port line is machine-parsed (smoke script, loadgen wrappers);
  // flush it before blocking in the event loop.
  std::printf("crowdtopk_router: listening on 127.0.0.1:%d\n", server.port());
  std::printf(
      "crowdtopk_router: shards=%lld policy=%s remote=%d cache_sync=%d "
      "max_redispatch=%lld seed=%llu cache=%d\n",
      static_cast<long long>(config.ports.empty()
                                 ? config.shards
                                 : static_cast<int64_t>(config.ports.size())),
      shard::PolicyName(config.policy), config.ports.empty() ? 0 : 1,
      config.cache_sync ? 1 : 0,
      static_cast<long long>(config.max_redispatch),
      static_cast<unsigned long long>(options.seed),
      options.cache.enabled ? 1 : 0);
  std::fflush(stdout);

  server.Serve();

  const net::StatsReply stats = server.Stats();
  const shard::RouterCounters counters = engine->counters();
  std::printf(
      "crowdtopk_router: drained | conns accepted=%lld rejected=%lld "
      "idle_closed=%lld | frames in=%lld out=%lld crc_errors=%lld "
      "malformed=%lld version_mismatches=%lld | queries submitted=%lld "
      "completed=%lld rejected=%lld cancelled=%lld batches=%lld | shards "
      "failures=%lld redispatched=%lld repurchased_microtasks=%lld "
      "exhausted=%lld | upstream retries=%lld redials=%lld\n",
      static_cast<long long>(stats.accepted_connections),
      static_cast<long long>(stats.rejected_connections),
      static_cast<long long>(stats.idle_closed),
      static_cast<long long>(stats.frames_in),
      static_cast<long long>(stats.frames_out),
      static_cast<long long>(stats.crc_errors),
      static_cast<long long>(stats.malformed_frames),
      static_cast<long long>(stats.version_mismatches),
      static_cast<long long>(stats.queries_submitted),
      static_cast<long long>(stats.queries_completed),
      static_cast<long long>(stats.queries_rejected),
      static_cast<long long>(stats.queries_cancelled),
      static_cast<long long>(stats.batches),
      static_cast<long long>(counters.shard_failures),
      static_cast<long long>(counters.redispatched_queries),
      static_cast<long long>(counters.repurchased_microtasks),
      static_cast<long long>(counters.exhausted_queries),
      static_cast<long long>(stats.client_retries),
      static_cast<long long>(stats.client_redials));

  const std::string report_path =
      util::GetEnvString("CROWDTOPK_ROUTER_REPORT", "");
  if (!report_path.empty()) {
    const util::Status written =
        util::WriteFileAtomic(report_path, engine->MergedReport());
    if (!written.ok()) {
      std::fprintf(stderr, "crowdtopk_router: report: %s\n",
                   written.ToString().c_str());
    }
  }
  engine->DumpTrace();
  g_server = nullptr;
  return 0;
}
