#include "serve/report.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/file_io.h"
#include "util/table.h"

namespace crowdtopk::serve {

double PercentileNearestRank(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  CROWDTOPK_CHECK(pct > 0.0 && pct <= 100.0);
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t rank = static_cast<int64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  return values[std::max<int64_t>(rank, 1) - 1];
}

ServeReport BuildServeReport(const std::vector<QueryOutcome>& outcomes,
                             const AssignmentStats& assignments,
                             double makespan_seconds, int64_t total_rounds) {
  ServeReport report;
  report.queries = static_cast<int64_t>(outcomes.size());
  report.makespan_seconds = makespan_seconds;
  report.total_rounds = total_rounds;
  report.assignments = assignments;

  std::vector<double> rounds, seconds;
  double queue_wait = 0.0, precision = 0.0;
  for (const QueryOutcome& o : outcomes) {
    if (o.rejected) {
      ++report.rejected;
      continue;
    }
    report.total_microtasks += o.total_microtasks;
    queue_wait += o.start_seconds - o.arrival_seconds;
    if (!o.status.ok()) {
      ++report.failed;
      continue;
    }
    ++report.completed;
    precision += o.precision_at_k;
    rounds.push_back(static_cast<double>(o.rounds_observed));
    seconds.push_back(o.latency_seconds);
  }
  const int64_t ran = report.completed + report.failed;
  if (ran > 0) {
    report.mean_queue_wait_seconds = queue_wait / static_cast<double>(ran);
  }
  if (report.completed > 0) {
    report.mean_precision =
        precision / static_cast<double>(report.completed);
  }
  if (makespan_seconds > 0.0) {
    report.throughput_per_hour = static_cast<double>(report.completed) /
                                 (makespan_seconds / 3600.0);
  }
  report.p50_rounds = PercentileNearestRank(rounds, 50.0);
  report.p95_rounds = PercentileNearestRank(rounds, 95.0);
  report.p99_rounds = PercentileNearestRank(rounds, 99.0);
  report.p50_seconds = PercentileNearestRank(seconds, 50.0);
  report.p95_seconds = PercentileNearestRank(seconds, 95.0);
  report.p99_seconds = PercentileNearestRank(seconds, 99.0);
  return report;
}

std::string RenderServeReport(const ServeReport& r) {
  std::string out;
  util::AppendFormat(
      &out,
      "queries            %lld (completed %lld, failed %lld, rejected %lld)\n"
      "makespan           %.3f s (%lld global rounds)\n"
      "throughput         %.4f completed queries/h\n"
      "latency rounds     p50 %.1f  p95 %.1f  p99 %.1f\n"
      "latency seconds    p50 %.3f  p95 %.3f  p99 %.3f\n"
      "queue wait         mean %.3f s\n"
      "microtasks         %lld purchased\n"
      "assignments        %lld scheduled, %lld completed, %lld expired, "
      "%lld requeued, %lld failed\n"
      "mean precision@k   %.4f (completed queries)\n",
      static_cast<long long>(r.queries), static_cast<long long>(r.completed),
      static_cast<long long>(r.failed), static_cast<long long>(r.rejected),
      r.makespan_seconds, static_cast<long long>(r.total_rounds),
      r.throughput_per_hour, r.p50_rounds, r.p95_rounds, r.p99_rounds,
      r.p50_seconds, r.p95_seconds, r.p99_seconds, r.mean_queue_wait_seconds,
      static_cast<long long>(r.total_microtasks),
      static_cast<long long>(r.assignments.scheduled),
      static_cast<long long>(r.assignments.completed),
      static_cast<long long>(r.assignments.expired),
      static_cast<long long>(r.assignments.requeued),
      static_cast<long long>(r.assignments.failed), r.mean_precision);
  return out;
}

std::string RenderServeReportJsonl(const ServeReport& r,
                                   const std::vector<QueryOutcome>& outcomes) {
  std::string out;
  util::AppendFormat(
      &out,
      "{\"record\":\"summary\",\"queries\":%lld,\"completed\":%lld,"
      "\"failed\":%lld,\"rejected\":%lld,\"makespan_seconds\":%.6f,"
      "\"total_rounds\":%lld,\"throughput_per_hour\":%.6f,"
      "\"total_microtasks\":%lld,\"mean_queue_wait_seconds\":%.6f,"
      "\"mean_precision\":%.6f,\"p50_rounds\":%.6f,\"p95_rounds\":%.6f,"
      "\"p99_rounds\":%.6f,\"p50_seconds\":%.6f,\"p95_seconds\":%.6f,"
      "\"p99_seconds\":%.6f,\"assignments_scheduled\":%lld,"
      "\"assignments_completed\":%lld,\"assignments_expired\":%lld,"
      "\"assignments_requeued\":%lld,\"assignments_failed\":%lld}\n",
      static_cast<long long>(r.queries), static_cast<long long>(r.completed),
      static_cast<long long>(r.failed), static_cast<long long>(r.rejected),
      r.makespan_seconds, static_cast<long long>(r.total_rounds),
      r.throughput_per_hour, static_cast<long long>(r.total_microtasks),
      r.mean_queue_wait_seconds, r.mean_precision, r.p50_rounds, r.p95_rounds,
      r.p99_rounds, r.p50_seconds, r.p95_seconds, r.p99_seconds,
      static_cast<long long>(r.assignments.scheduled),
      static_cast<long long>(r.assignments.completed),
      static_cast<long long>(r.assignments.expired),
      static_cast<long long>(r.assignments.requeued),
      static_cast<long long>(r.assignments.failed));
  for (const QueryOutcome& o : outcomes) {
    std::string items = "[";
    for (size_t i = 0; i < o.items.size(); ++i) {
      if (i > 0) items += ",";
      items += std::to_string(o.items[i]);
    }
    items += "]";
    util::AppendFormat(
        &out,
        "{\"record\":\"query\",\"query_id\":%lld,\"algorithm\":\"%s\","
        "\"status\":\"%s\",\"arrival_seconds\":%.6f,\"start_seconds\":%.6f,"
        "\"finish_seconds\":%.6f,\"latency_seconds\":%.6f,"
        "\"rounds_observed\":%lld,\"rounds_private\":%lld,"
        "\"total_microtasks\":%lld,\"expired_assignments\":%lld,"
        "\"requeued_assignments\":%lld,\"precision_at_k\":%.6f,"
        "\"cache_hits\":%lld,\"cache_topups\":%lld,\"cache_inferred\":%lld,"
        "\"cache_misses\":%lld,\"items\":%s}\n",
        static_cast<long long>(o.query_id), o.algorithm.c_str(),
        o.rejected ? "REJECTED" : (o.status.ok() ? "OK" : "FAILED"),
        o.arrival_seconds, o.start_seconds, o.finish_seconds,
        o.latency_seconds, static_cast<long long>(o.rounds_observed),
        static_cast<long long>(o.rounds_private),
        static_cast<long long>(o.total_microtasks),
        static_cast<long long>(o.expired_assignments),
        static_cast<long long>(o.requeued_assignments), o.precision_at_k,
        static_cast<long long>(o.cache_hits),
        static_cast<long long>(o.cache_topups),
        static_cast<long long>(o.cache_inferred),
        static_cast<long long>(o.cache_misses), items.c_str());
  }
  return out;
}

util::Status WriteServeReportJsonl(const ServeReport& report,
                                   const std::vector<QueryOutcome>& outcomes,
                                   const std::string& path) {
  return util::WriteFileAtomic(path, RenderServeReportJsonl(report, outcomes));
}

std::string RenderQueryTable(const std::vector<QueryOutcome>& outcomes) {
  std::string out =
      "query,algo,status,arrival_s,start_s,finish_s,latency_s,"
      "rounds_observed,rounds_private,tmc,requeued,precision\n";
  for (const QueryOutcome& o : outcomes) {
    util::AppendFormat(
        &out, "%lld,%s,%s,%.3f,%.3f,%.3f,%.3f,%lld,%lld,%lld,%lld,%.4f\n",
        static_cast<long long>(o.query_id), o.algorithm.c_str(),
        o.rejected ? "REJECTED" : (o.status.ok() ? "OK" : "FAILED"),
        o.arrival_seconds, o.start_seconds, o.finish_seconds,
        o.latency_seconds, static_cast<long long>(o.rounds_observed),
        static_cast<long long>(o.rounds_private),
        static_cast<long long>(o.total_microtasks),
        static_cast<long long>(o.requeued_assignments), o.precision_at_k);
  }
  return out;
}

}  // namespace crowdtopk::serve
