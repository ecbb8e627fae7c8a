// The network workload "net_router_small" (README.md, "Workloads"): one
// net::Server on loopback with a shard::RouterEngine (K = 4 in-process
// shards, cache on) injected through engine_factory, driven by a closed
// loop of 4 client connections. Every query is the same SPR top-10 spec on
// peopleage, so total work does not depend on how the clients interleave.
//
// One pass = set-up (dataset, server start, client connects) + 2048 queries
// + drain. Every pass starts from a fresh server, so no pass inherits the
// previous pass's cache.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/generators.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "probes.h"
#include "shard/router_engine.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workloads.h"

namespace crowdtopk::perfbench {
namespace {

constexpr char kDataset[] = "peopleage";
constexpr int kClients = 4;
constexpr int64_t kShards = 4;
constexpr int64_t kQueriesPerPass = 2048;
// p95 keeps about 100 of a pass's 2048 samples beyond it. p99 would keep 20,
// but on a shared 4-core host its run-to-run spread reached 39%, past any
// bound a regression check can use.
constexpr double kTailPercentile = 95.0;

net::SubmitQuery QuerySpec() {
  net::SubmitQuery spec;
  spec.dataset = kDataset;
  spec.k = kTopK;
  spec.algo = "spr";
  spec.alpha = kAlpha;
  return spec;
}

// One query as the client saw it.
struct ClientRecord {
  bool ok = false;
  int64_t query_id = -1;
  int64_t latency_ns = 0;  // submit to result received
  net::Result result;
};

// A running server plus its connected clients.
struct Stack {
  DriverLog log;  // outlives the server's algorithm decorators
  std::unique_ptr<net::Server> server;
  std::thread serve_thread;
  std::vector<std::unique_ptr<net::Client>> clients;
  TimedEngine* engine = nullptr;  // traced passes; owned by the server
  int64_t num_items = 0;
};

// Set-up: everything before the first query. Returns false (with the
// report failed) when the server or a client cannot start.
bool StartStack(uint64_t seed, bool traced, Stack* stack, Report* report) {
  net::ServerOptions server_options;
  server_options.seed = seed;
  server_options.schedule.crowd_workers = kCrowdWorkers;
  server_options.schedule.per_pair_batch = kEta;
  server_options.schedule.max_attempts = kAttempts;
  server_options.jobs = 1;
  server_options.cache.enabled = true;

  // The router resolves datasets lazily at the first submit. Generate the
  // fixture now, so that dataset generation counts as set-up, and hand it
  // over whatever seed the router derives from the serving seed.
  std::unique_ptr<data::Dataset> dataset = data::MakeByName(
      kDataset, util::SplitSeed(kDatasetSeed,
                                util::Fnv1a64(std::string(kDataset))));
  stack->num_items = dataset->num_items();
  if (traced) dataset = std::make_unique<TimedDataset>(std::move(dataset));
  auto slot =
      std::make_shared<std::unique_ptr<data::Dataset>>(std::move(dataset));
  server_options.dataset_factory =
      [slot](const std::string& name,
             uint64_t) -> std::unique_ptr<data::Dataset> {
    if (name != kDataset) return nullptr;
    return std::move(*slot);
  };
  if (traced) {
    const net::AlgorithmFactory inner = net::DefaultAlgorithmFactory();
    DriverLog* log = &stack->log;
    server_options.algorithm_factory =
        [inner, log](const std::string& name,
                     const judgment::ComparisonOptions& comparison)
        -> std::unique_ptr<core::TopKAlgorithm> {
      std::unique_ptr<core::TopKAlgorithm> algorithm =
          inner(name, comparison);
      if (algorithm == nullptr) return nullptr;
      return std::make_unique<TimedAlgorithm>(std::move(algorithm), log,
                                              /*traced=*/true);
    };
  }
  shard::RouterEngineConfig config;
  config.shards = kShards;
  server_options.engine_factory =
      [config, traced, stack](const net::ServerOptions& engine_options,
                              std::function<void()> wake)
      -> std::unique_ptr<net::Engine> {
    auto router = std::make_unique<shard::RouterEngine>(engine_options, config,
                                                        std::move(wake));
    if (!traced) return router;
    auto timed = std::make_unique<TimedEngine>(std::move(router));
    stack->engine = timed.get();
    return timed;
  };

  stack->server = std::make_unique<net::Server>(server_options);
  const util::Status started = stack->server->Start();
  if (!started.ok()) {
    report->Fail("server start: " + started.ToString());
    return false;
  }
  net::Server* server = stack->server.get();
  stack->serve_thread = std::thread([server] { server->Serve(); });
  net::ClientOptions client_options;
  client_options.port = stack->server->port();
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<net::Client>(client_options);
    const util::Status connected = client->Connect();
    if (!connected.ok()) {
      report->Fail("client connect: " + connected.ToString());
      return false;
    }
    stack->clients.push_back(std::move(client));
  }
  return true;
}

// Closes the clients, drains the server and joins its thread. The server
// object stays alive so a traced pass can still read its engine decorator.
void StopStack(Stack* stack) {
  for (auto& client : stack->clients) client->Close();
  if (stack->serve_thread.joinable()) {
    stack->server->RequestDrain();
    stack->serve_thread.join();
  }
}

struct Pass {
  double wall_s = 0.0;
  int64_t completed = 0;
  int64_t microtasks = 0;
  std::vector<double> latency_ms;
  std::vector<double> rounds;
  std::vector<double> precision;
  std::map<std::string, double> layer;  // traced passes only
  std::vector<net::Result> results;     // traced passes: frame codec input
};

Pass RunPass(uint64_t seed, bool traced, Report* report) {
  Pass pass;
  Stack stack;
  if (!StartStack(seed, traced, &stack, report)) {
    StopStack(&stack);
    return pass;
  }

  // Closed loop: client c sends its next query only after the previous
  // result arrived.
  std::vector<std::vector<ClientRecord>> records(kClients);
  const net::SubmitQuery spec = QuerySpec();
  const Usage usage_before = ProcessUsage();
  const int64_t start = WallNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client& client = *stack.clients[c];
      for (int64_t q = c; q < kQueriesPerPass; q += kClients) {
        ClientRecord record;
        const int64_t sent = WallNs();
        util::StatusOr<int64_t> id = client.Submit(spec);
        if (id.ok()) {
          record.query_id = *id;
          util::StatusOr<net::Result> result = client.AwaitResult(*id);
          if (result.ok()) {
            record.latency_ns = WallNs() - sent;
            record.result = std::move(*result);
            record.ok = true;
          }
        }
        records[c].push_back(std::move(record));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pass.wall_s = static_cast<double>(WallNs() - start) * 1e-9;
  const Usage usage_after = ProcessUsage();
  int64_t client_submits = 0, retries = 0;
  for (const auto& client : stack.clients) retries += client->retries();
  StopStack(&stack);

  std::unordered_map<int64_t, int64_t> client_latency_ns;
  for (const std::vector<ClientRecord>& per_client : records) {
    for (const ClientRecord& record : per_client) {
      if (record.query_id >= 0) ++client_submits;
      const bool ok = record.ok && record.result.status_code == 0 &&
                      ValidTopK(record.result.items, stack.num_items);
      report->Attempt(ok);
      if (!ok) continue;
      ++pass.completed;
      pass.microtasks += record.result.total_microtasks;
      pass.latency_ms.push_back(static_cast<double>(record.latency_ns) * 1e-6);
      pass.rounds.push_back(static_cast<double>(record.result.rounds));
      pass.precision.push_back(record.result.precision_at_k);
      client_latency_ns[record.query_id] = record.latency_ns;
      if (traced) pass.results.push_back(record.result);
    }
  }
  if (!traced) return pass;

  // ----- per-layer metrics of this pass ---------------------------------
  std::map<std::string, double>& m = pass.layer;
  const TimedEngine& engine = *stack.engine;
  if (engine.submits() != client_submits) {
    report->Fail("engine saw " + std::to_string(engine.submits()) +
                 " submits, clients sent " + std::to_string(client_submits));
  }
  AddDriverMetrics(stack.log.Take(), pass.microtasks, &m, report);
  m["serve.voluntary_ctx_switches"] = static_cast<double>(
      usage_after.voluntary_switches - usage_before.voluntary_switches);
  m["serve.sys_s"] = usage_after.sys_s - usage_before.sys_s;
  m["serve.user_s"] = usage_after.user_s - usage_before.user_s;

  std::vector<double> residence_ms, overhead_us;
  for (const auto& [id, residence] : engine.residence_ns()) {
    residence_ms.push_back(static_cast<double>(residence) * 1e-6);
    const auto it = client_latency_ns.find(id);
    if (it != client_latency_ns.end()) {
      overhead_us.push_back(static_cast<double>(it->second - residence) * 1e-3);
    }
  }
  m["shard.engine_residence_p50_ms"] = Median(residence_ms);
  m["shard.batches"] = static_cast<double>(engine.batches());
  m["shard.queries_per_batch"] =
      engine.batches() > 0
          ? static_cast<double>(engine.submits()) / engine.batches()
          : 0.0;
  m["net.overhead_p50_us"] = Median(overhead_us);
  m["net.engine_submit_us"] =
      engine.submits() > 0
          ? static_cast<double>(engine.submit_ns()) * 1e-3 / engine.submits()
          : 0.0;
  m["net.client_retries"] = static_cast<double>(retries);
  return pass;
}

// Frame codec cost on the pass's real Submit and Result messages.
void MeasureCodec(const std::vector<net::Result>& results,
                  std::map<std::string, double>* layer, Report* report) {
  std::vector<net::NetMessage> messages;
  net::NetMessage submit;
  submit.type = net::MessageType::kSubmitQuery;
  submit.submit = QuerySpec();
  for (const net::Result& result : results) {
    messages.push_back(submit);
    net::NetMessage message;
    message.type = net::MessageType::kResult;
    message.result = result;
    messages.push_back(std::move(message));
  }
  if (messages.empty()) return;

  std::vector<std::string> frames(messages.size());
  int64_t encoded = 0;
  int64_t start = WallNs();
  do {
    for (size_t i = 0; i < messages.size(); ++i) {
      frames[i] = net::FrameMessage(messages[i]);
    }
    encoded += static_cast<int64_t>(messages.size());
  } while (WallNs() - start < 50'000'000);
  (*layer)["net.frame_encode_ns"] =
      static_cast<double>(WallNs() - start) / encoded;

  int64_t decoded = 0;
  std::string payload;
  net::NetMessage out;
  start = WallNs();
  do {
    net::FrameReader reader;
    for (const std::string& frame : frames) {
      reader.Append(frame);
      if (reader.Pop(&payload) != net::FrameReader::Next::kFrame ||
          !net::DecodeMessage(payload, &out)) {
        report->Fail("a real frame failed to decode");
        return;
      }
    }
    decoded += static_cast<int64_t>(frames.size());
  } while (WallNs() - start < 50'000'000);
  (*layer)["net.frame_decode_ns"] =
      static_cast<double>(WallNs() - start) / decoded;
}

}  // namespace

void RunNetWorkload(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  std::vector<Pass> passes;
  double measured_s = 0.0;
  // Untraced, pass p serves under seed stream p, so a run averages over
  // several inputs. Traced, every pass uses stream 0 and the first one runs
  // untraced as the base of the tracing overhead.
  for (int p = 0;; ++p) {
    const bool traced = options.trace && p > 0;
    const uint64_t seed =
        util::SplitSeed(options.seed, options.trace ? 0 : p);
    for (int i = 0; !options.trace && i < kSetupSamplesPerRepetition; ++i) {
      Stack stack;
      const int64_t start = WallNs();
      StartStack(seed, false, &stack, report);
      setup_s.push_back(static_cast<double>(WallNs() - start) * 1e-9);
      StopStack(&stack);
    }
    passes.push_back(RunPass(seed, traced, report));
    measured_s += passes.back().wall_s;
    if (!report->correct()) break;
    const bool enough =
        measured_s >= options.seconds && (!options.trace || passes.size() >= 3);
    if (enough || measured_s >= kMaxMeasureSeconds) break;
  }

  std::vector<double> p50_ms, tail_ms, rounds, precision;
  double wall_s = 0.0, completed = 0.0, microtasks = 0.0;
  size_t samples = 0;
  const size_t first = options.trace ? 1 : 0;
  // Throughput over the whole measured phase; latency percentiles per pass
  // (2048 samples each), then the median over passes.
  for (size_t p = first; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    wall_s += pass.wall_s;
    completed += static_cast<double>(pass.completed);
    microtasks += static_cast<double>(pass.microtasks);
    p50_ms.push_back(Median(pass.latency_ms));
    tail_ms.push_back(Percentile(pass.latency_ms, kTailPercentile));
    samples += pass.latency_ms.size();
    rounds.insert(rounds.end(), pass.rounds.begin(), pass.rounds.end());
    precision.insert(precision.end(), pass.precision.begin(),
                     pass.precision.end());
  }
  char note[256];
  std::snprintf(note, sizeof(note),
                "%s seed=%llu: %zu passes, %.2f s measured, latency_tail_ms "
                "is the median over passes of p%.0f over %lld client samples "
                "each (%zu in all), error_rate=%lld/%lld",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), passes.size(),
                measured_s, kTailPercentile,
                static_cast<long long>(kQueriesPerPass), samples,
                static_cast<long long>(report->failed()),
                static_cast<long long>(report->attempted()));
  report->Note(note);

  const double qps = completed / wall_s;
  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_s);
    e2e.queries_per_s = qps;
    e2e.microtasks_per_s = microtasks / wall_s;
    e2e.latency_p50_ms = Median(p50_ms);
    e2e.latency_tail_ms = Median(tail_ms);
    e2e.tmc_per_query = completed > 0 ? microtasks / completed : 0.0;
    e2e.rounds_per_query = Mean(rounds);
    e2e.precision_at_k = Mean(precision);
    AddEndToEndMetrics(e2e, report);
    return;
  }

  std::map<std::string, double> layer;
  for (const auto& [name, unused] : passes.back().layer) {
    std::vector<double> values;
    for (size_t p = first; p < passes.size(); ++p) {
      values.push_back(passes[p].layer.at(name));
    }
    layer[name] = Median(values);
  }
  MeasureCodec(passes.back().results, &layer, report);
  const double base_qps = passes.front().completed / passes.front().wall_s;
  layer["latency.tail_percentile"] = kTailPercentile;
  layer["latency.samples"] = static_cast<double>(samples);
  layer["trace.base_queries_per_s"] = base_qps;
  layer["trace.overhead_ratio"] = qps / base_qps;
  AddLayerMetrics(layer, report);
}

}  // namespace crowdtopk::perfbench
