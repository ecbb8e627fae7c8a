// The report every workload fills, the metric tables it is printed from,
// and the checks the workloads share.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "workloads.h"

namespace crowdtopk::perfbench {
namespace {

void Json(const std::string& text, std::string* out) {
  out->push_back('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

// Every per-layer metric, in the order BENCHMARK.json lists them.
constexpr struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"data.judgments", "count"},
    {"data.oracle_ns_per_judgment", "ns"},
    {"core.driver_cpu_s", "s"},
    {"core.driver_self_cpu_s", "s"},
    {"core.driver_cpu_ns_per_microtask", "ns"},
    {"core.driver_parked_s", "s"},
    {"serve.replay_wall_s", "s"},
    {"serve.service_cpu_s", "s"},
    {"serve.assignments_scheduled", "count"},
    {"serve.rounds", "count"},
    {"serve.service_ns_per_assignment", "ns"},
    {"serve.voluntary_ctx_switches", "count"},
    {"serve.ctx_switches_per_round", "ratio"},
    {"serve.sys_s", "s"},
    {"serve.user_s", "s"},
    {"serve.expired", "count"},
    {"serve.requeued", "count"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.seeded_samples", "count"},
    {"cache.pairs", "count"},
    {"cache.lookup_ns", "ns"},
    {"cache.restore_ms", "ms"},
    {"persist.wal_batches", "count"},
    {"persist.wal_records", "count"},
    {"persist.wal_bytes", "bytes"},
    {"persist.snapshots", "count"},
    {"persist.snapshot_bytes", "bytes"},
    {"persist.append_us", "us"},
    {"persist.snapshot_ms", "ms"},
    {"persist.snapshot_share", "ratio"},
    {"shard.engine_residence_p50_ms", "ms"},
    {"shard.batches", "count"},
    {"shard.queries_per_batch", "ratio"},
    {"net.overhead_p50_us", "us"},
    {"net.engine_submit_us", "us"},
    {"net.frame_encode_ns", "ns"},
    {"net.frame_decode_ns", "ns"},
    {"net.client_retries", "count"},
    {"latency.tail_percentile", "%"},
    {"latency.samples", "count"},
    {"trace.base_queries_per_s", "1/s"},
    {"trace.overhead_ratio", "ratio"},
};

}  // namespace

void AddEndToEndMetrics(const EndToEnd& e2e, Report* report) {
  report->Add("setup_s", e2e.setup_s, "s");
  report->Add("queries_per_s", e2e.queries_per_s, "1/s");
  report->Add("microtasks_per_s", e2e.microtasks_per_s, "1/s");
  report->Add("latency_p50_ms", e2e.latency_p50_ms, "ms");
  report->Add("latency_tail_ms", e2e.latency_tail_ms, "ms");
  report->Add("tmc_per_query", e2e.tmc_per_query, "microtasks");
  report->Add("rounds_per_query", e2e.rounds_per_query, "rounds");
  report->Add("precision_at_k", e2e.precision_at_k, "ratio");
  report->Add("peak_rss_mb", ProcessUsage().max_rss_mb, "MiB");
  report->Add("success_rate",
              1.0 - static_cast<double>(report->failed()) /
                        static_cast<double>(std::max<int64_t>(
                            1, report->attempted())),
              "ratio");
}

void AddLayerMetrics(const std::map<std::string, double>& values,
                     Report* report) {
  for (const auto& metric : kLayerMetrics) {
    const auto it = values.find(metric.name);
    report->Add(metric.name, it == values.end() ? 0.0 : it->second,
                metric.unit);
  }
  for (const auto& [name, unused] : values) {
    bool listed = false;
    for (const auto& metric : kLayerMetrics) listed |= name == metric.name;
    if (!listed) report->Fail("per-layer metric " + name + " is not listed");
  }
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  correct_ = false;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    Json(metrics_[i].name, &out);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out += ": {\"value\": ";
    out += value;
    out += ", \"unit\": ";
    Json(metrics_[i].unit, &out);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void AddDriverMetrics(const std::vector<DriverSample>& samples,
                      int64_t purchased, std::map<std::string, double>* layer,
                      Report* report) {
  int64_t judgments = 0, oracle_ns = 0, cpu_ns = 0, parked_ns = 0;
  for (const DriverSample& s : samples) {
    judgments += s.judgments;
    oracle_ns += s.oracle_ns;
    cpu_ns += s.cpu_ns;
    parked_ns += s.wall_ns - s.cpu_ns;
  }
  if (judgments != purchased) {
    report->Fail("data.judgments " + std::to_string(judgments) +
                 " != purchased microtasks " + std::to_string(purchased));
  }
  std::map<std::string, double>& m = *layer;
  m["data.judgments"] = static_cast<double>(judgments);
  m["data.oracle_ns_per_judgment"] =
      judgments > 0 ? static_cast<double>(oracle_ns) / judgments : 0.0;
  m["core.driver_cpu_s"] = static_cast<double>(cpu_ns) * 1e-9;
  m["core.driver_self_cpu_s"] = static_cast<double>(cpu_ns - oracle_ns) * 1e-9;
  m["core.driver_cpu_ns_per_microtask"] =
      purchased > 0 ? static_cast<double>(cpu_ns) / purchased : 0.0;
  m["core.driver_parked_s"] = static_cast<double>(parked_ns) * 1e-9;
}

bool ValidTopK(const std::vector<crowd::ItemId>& items, int64_t num_items) {
  if (static_cast<int64_t>(items.size()) != kTopK) return false;
  std::set<crowd::ItemId> distinct;
  for (const crowd::ItemId id : items) {
    if (id < 0 || id >= num_items) return false;
    distinct.insert(id);
  }
  return static_cast<int64_t>(distinct.size()) == kTopK;
}

}  // namespace crowdtopk::perfbench
