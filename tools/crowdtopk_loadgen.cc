// crowdtopk_loadgen: closed-loop load generator for crowdtopk_router
// (src/net, docs/NETWORK.md). Submits a seeded trace of top-k queries over
// TCP and prints a deterministic latency / cost report.
//
// The arrival schedule is the same seeded Poisson process the offline
// serving bench replays (serve::PoissonArrivals); by default it only
// labels the queries (no wall-clock pacing), because every latency figure
// in the report is *simulated* seconds carried back in the Result frames —
// the crowd is a deterministic simulation, so for a fixed seed and one
// worker the whole report is byte-identical across runs. That invariant is
// what the net_smoke CI job diffs. Multiple workers keep every number
// correct per query but may split the trace into different server-side
// batches, so only the single-worker report is canonical.
//
// All knobs are environment variables (run with --help for the list).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "serve/arrival.h"
#include "util/env.h"
#include "util/file_io.h"
#include "util/status.h"

namespace {

using namespace crowdtopk;

constexpr char kHelp[] = R"(crowdtopk_loadgen [--help]

Drives crowdtopk_router with a seeded query trace and prints a
deterministic report (byte-identical across runs for a fixed seed and
CROWDTOPK_LOADGEN_WORKERS=1 — latency is simulated time from the server,
never wall clock). The shard_id column is the executing shard: 0 at the
router's default CROWDTOPK_SHARDS=1.

Target
  CROWDTOPK_NET_HOST        server host                (default 127.0.0.1)
  CROWDTOPK_NET_PORT        server's bound port        (required; no default)

Workload knobs
  CROWDTOPK_LOADGEN_QUERIES queries in the trace             (default 24)
  CROWDTOPK_LOADGEN_RATE    Poisson arrival rate lambda /s   (default 0.01)
  CROWDTOPK_LOADGEN_DATASET imdb|book|jester|photo|peopleage (peopleage)
  CROWDTOPK_LOADGEN_K       top-k                            (default 10)
  CROWDTOPK_LOADGEN_ALPHA   significance level               (default 0.02)
  CROWDTOPK_LOADGEN_BUDGET  per-pair budget B, <=0 = server default (0)
  CROWDTOPK_LOADGEN_ALGOS   comma list: spr,tourtree,heapsort,quickselect
                            — query q runs algos[q mod len]  (all four)
  CROWDTOPK_LOADGEN_WORKERS closed-loop client threads       (default 1)
  CROWDTOPK_LOADGEN_PACE_MS_PER_S
                            wall-clock pacing: sleep this many ms per
                            simulated arrival second; 0 = no pacing (0)
  CROWDTOPK_SEED            arrival-trace seed         (default 20170514)

Output knobs
  CROWDTOPK_LOADGEN_REPORT  also write the report to this path (default "")

Exit codes: 0 all queries reached a terminal outcome, 1 transport failure.
)";

std::vector<std::string> SplitCsv(const std::string& list) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : list) {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else if (c != ' ') {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  int64_t idx = static_cast<int64_t>(std::ceil(rank)) - 1;
  idx = std::max<int64_t>(0, std::min<int64_t>(idx, values.size() - 1));
  return values[idx];
}

struct QueryRecord {
  bool transport_error = false;
  util::Status status;  // transport status when transport_error
  int64_t query_id = -1;
  net::Result result;
};

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf("%s", kHelp);
      return 0;
    }
    std::fprintf(stderr, "unknown argument %s (try --help)\n", argv[i]);
    return 1;
  }

  net::ClientOptions client_options;
  client_options.host = util::GetEnvString("CROWDTOPK_NET_HOST", "127.0.0.1");
  client_options.port = util::NetPort();
  if (client_options.port <= 0) {
    std::fprintf(stderr,
                 "crowdtopk_loadgen: CROWDTOPK_NET_PORT must be the server's "
                 "bound port (the server binds an ephemeral port by default "
                 "and prints 'listening on 127.0.0.1:<port>')\n");
    return 1;
  }

  const int64_t queries = util::GetEnvInt64("CROWDTOPK_LOADGEN_QUERIES", 24);
  const double rate = util::GetEnvDouble("CROWDTOPK_LOADGEN_RATE", 0.01);
  const std::string dataset =
      util::GetEnvString("CROWDTOPK_LOADGEN_DATASET", "peopleage");
  const int64_t k = util::GetEnvInt64("CROWDTOPK_LOADGEN_K", 10);
  const double alpha = util::GetEnvDouble("CROWDTOPK_LOADGEN_ALPHA", 0.02);
  const int64_t budget = util::GetEnvInt64("CROWDTOPK_LOADGEN_BUDGET", 0);
  const std::vector<std::string> algos = SplitCsv(util::GetEnvString(
      "CROWDTOPK_LOADGEN_ALGOS", "spr,tourtree,heapsort,quickselect"));
  const int64_t workers =
      std::max<int64_t>(1, util::GetEnvInt64("CROWDTOPK_LOADGEN_WORKERS", 1));
  const double pace_ms_per_s =
      util::GetEnvDouble("CROWDTOPK_LOADGEN_PACE_MS_PER_S", 0.0);
  const uint64_t seed = util::BenchSeed();
  if (queries <= 0 || algos.empty()) {
    std::fprintf(stderr, "nothing to do (queries=%lld, %zu algos)\n",
                 static_cast<long long>(queries), algos.size());
    return 1;
  }

  const std::vector<double> arrivals =
      serve::PoissonArrivals(queries, rate, seed);

  std::vector<QueryRecord> records(queries);
  const auto start = std::chrono::steady_clock::now();

  // Closed loop: worker w owns query indices w, w+W, w+2W, ... and runs
  // each submit -> await to completion before the next, over its own
  // connection. Workers never share state, so no locks.
  auto run_worker = [&](int64_t w) {
    net::Client client(client_options);
    for (int64_t q = w; q < queries; q += workers) {
      if (pace_ms_per_s > 0.0) {
        const auto due =
            start + std::chrono::milliseconds(static_cast<int64_t>(
                        arrivals[q] * pace_ms_per_s));
        std::this_thread::sleep_until(due);
      }
      net::SubmitQuery submit;
      submit.dataset = dataset;
      submit.k = k;
      submit.algo = algos[q % algos.size()];
      submit.alpha = alpha;
      submit.budget = budget;
      util::StatusOr<int64_t> id = client.Submit(submit);
      if (!id.ok()) {
        records[q].transport_error = true;
        records[q].status = id.status();
        continue;
      }
      records[q].query_id = *id;
      util::StatusOr<net::Result> result = client.AwaitResult(*id);
      if (!result.ok()) {
        records[q].transport_error = true;
        records[q].status = result.status();
        continue;
      }
      records[q].result = std::move(*result);
    }
  };

  std::vector<std::thread> threads;
  for (int64_t w = 1; w < workers; ++w) threads.emplace_back(run_worker, w);
  run_worker(0);
  for (std::thread& t : threads) t.join();

  // ----- deterministic report (simulated metrics only) -------------------
  std::string report;
  Appendf(&report,
          "crowdtopk_loadgen: %lld queries (%s) on %s, k=%lld, alpha=%g, "
          "budget=%lld, lambda=%g/s, seed=%llu, workers=%lld\n",
          static_cast<long long>(queries),
          util::GetEnvString("CROWDTOPK_LOADGEN_ALGOS",
                             "spr,tourtree,heapsort,quickselect")
              .c_str(),
          dataset.c_str(), static_cast<long long>(k), alpha,
          static_cast<long long>(budget), rate,
          static_cast<unsigned long long>(seed),
          static_cast<long long>(workers));
  Appendf(&report,
          "q,query_id,algo,arrival_s,status,rounds,microtasks,latency_s,"
          "queue_wait_s,precision,shard_id\n");

  int64_t ok_count = 0;
  int64_t rejected = 0;
  int64_t transport_errors = 0;
  int64_t total_microtasks = 0;
  int64_t total_rounds = 0;
  double precision_sum = 0.0;
  std::vector<double> latencies;
  std::vector<double> queue_waits;
  for (int64_t q = 0; q < queries; ++q) {
    const QueryRecord& r = records[q];
    if (r.transport_error) {
      ++transport_errors;
      Appendf(&report, "%lld,%lld,%s,%.6f,transport:%s,,,,,,\n",
              static_cast<long long>(q),
              static_cast<long long>(r.query_id),
              algos[q % algos.size()].c_str(), arrivals[q],
              util::StatusCodeName(r.status.code()));
      continue;
    }
    const net::Result& res = r.result;
    const bool ok = res.status_code ==
                    static_cast<uint32_t>(util::StatusCode::kOk);
    if (ok) {
      ++ok_count;
      total_microtasks += res.total_microtasks;
      total_rounds += res.rounds;
      precision_sum += res.precision_at_k;
      latencies.push_back(res.latency_seconds);
      queue_waits.push_back(res.queue_wait_seconds);
    } else {
      ++rejected;
    }
    Appendf(&report, "%lld,%lld,%s,%.6f,%s,%lld,%lld,%.6f,%.6f,%.4f,%lld\n",
            static_cast<long long>(q), static_cast<long long>(r.query_id),
            algos[q % algos.size()].c_str(), arrivals[q],
            ok ? "ok"
               : util::StatusCodeName(
                     static_cast<util::StatusCode>(res.status_code)),
            static_cast<long long>(res.rounds),
            static_cast<long long>(res.total_microtasks),
            res.latency_seconds, res.queue_wait_seconds,
            res.precision_at_k, static_cast<long long>(res.shard_id));
  }
  Appendf(&report,
          "summary: ok=%lld rejected=%lld transport_errors=%lld "
          "total_microtasks=%lld total_rounds=%lld mean_precision=%.4f\n",
          static_cast<long long>(ok_count), static_cast<long long>(rejected),
          static_cast<long long>(transport_errors),
          static_cast<long long>(total_microtasks),
          static_cast<long long>(total_rounds),
          ok_count > 0 ? precision_sum / static_cast<double>(ok_count) : 0.0);
  Appendf(&report,
          "latency_s: p50=%.6f p95=%.6f p99=%.6f | queue_wait_s: p50=%.6f "
          "p95=%.6f p99=%.6f\n",
          Percentile(latencies, 50), Percentile(latencies, 95),
          Percentile(latencies, 99), Percentile(queue_waits, 50),
          Percentile(queue_waits, 95), Percentile(queue_waits, 99));

  std::fputs(report.c_str(), stdout);
  const std::string report_path =
      util::GetEnvString("CROWDTOPK_LOADGEN_REPORT", "");
  if (!report_path.empty()) {
    const util::Status status = util::WriteFileAtomic(report_path, report);
    if (!status.ok()) {
      std::fprintf(stderr, "loadgen report: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return transport_errors == 0 ? 0 : 1;
}
