#include "serve/query_service.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <deque>
#include <thread>
#include <unordered_map>

#include "persist/format.h"
#include "metrics/ranking_metrics.h"
#include "metrics/trace_aggregate.h"
#include "serve/async_platform.h"
#include "telemetry/export.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/random.h"

namespace crowdtopk::serve {
namespace {

// Salt separating the per-query judgment streams from the latency and
// arrival streams derived from the same master seed.
constexpr uint64_t kJudgmentStream = 0x6a7564676d656e74ULL;

std::string FileToken(const std::string& name) {
  std::string token;
  for (char c : name) {
    token += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(std::tolower(c))
                 : '_';
  }
  return token.empty() ? "algo" : token;
}

// Everything that shapes the replay's outcomes, the cache `image` it
// starts from included, goes into the persist manifest fingerprint:
// resuming under a different configuration would re-execute a *different*
// deterministic function and silently diverge from the durable records.
// jobs and trace_dir are excluded on purpose — they never change results,
// and resuming with a different worker count is an explicitly supported
// (and tested) case.
uint64_t ConfigFingerprint(const ServeOptions& options,
                           const std::vector<cache::ExportedEntry>& image,
                           const std::vector<QueryRequest>& requests,
                           const std::vector<double>& arrivals) {
  persist::Encoder enc;
  enc.PutU64(options.seed);
  enc.PutI64(options.schedule.crowd_workers);
  enc.PutI64(options.schedule.per_pair_batch);
  enc.PutDouble(options.schedule.mean_pickup_seconds);
  enc.PutDouble(options.schedule.mean_task_seconds);
  enc.PutDouble(options.schedule.task_time_sigma);
  enc.PutDouble(options.schedule.abandon_probability);
  enc.PutDouble(options.schedule.no_show_probability);
  enc.PutDouble(options.schedule.deadline_seconds);
  enc.PutI64(options.schedule.max_attempts);
  enc.PutI64(options.max_inflight);
  enc.PutI64(options.max_queue);
  enc.PutU8(options.cache.enabled ? 1 : 0);
  enc.PutI64(options.cache.capacity);
  enc.PutU8(options.cache.transitivity ? 1 : 0);
  enc.PutU32(static_cast<uint32_t>(image.size()));
  for (const cache::ExportedEntry& entry : image) {
    persist::EncodeCacheEntry(entry, &enc);
  }
  enc.PutU32(static_cast<uint32_t>(requests.size()));
  for (size_t i = 0; i < requests.size(); ++i) {
    enc.PutI64(requests[i].k);
    enc.PutI64(requests[i].cache_universe);
    enc.PutI64(requests[i].seed_stream);
    enc.PutString(requests[i].algorithm->name());
    enc.PutU32(static_cast<uint32_t>(requests[i].cache_item_ids.size()));
    for (const crowd::ItemId id : requests[i].cache_item_ids) enc.PutI32(id);
    enc.PutDouble(arrivals[i]);
  }
  return util::Fnv1a64(enc.buffer());
}

}  // namespace

QueryService::QueryService(const ServeOptions& options)
    : options_(options),
      judgment_seed_(util::SplitSeed(options.seed, kJudgmentStream)) {
  CROWDTOPK_CHECK(
      CheckScheduleOptions(options.schedule, options.max_inflight).ok());
  CROWDTOPK_CHECK_GE(options.jobs, 0);
  if (options_.jobs != 1) {
    pool_ = std::make_unique<exec::ThreadPool>(
        options_.jobs == 0 ? exec::ThreadPool::HardwareThreads()
                           : options_.jobs);
  }
  RestoreCache({});
}

void QueryService::RestoreCache(
    const std::vector<cache::ExportedEntry>& entries) {
  if (!options_.cache.enabled) return;
  CROWDTOPK_CHECK(clients_.empty());
  cache_ = std::make_unique<cache::JudgmentCache>(options_.cache);
  cache_->RestoreEntries(entries);
  retired_ = cache::ClientStats();
}

std::vector<QueryOutcome> QueryService::Replay(
    const std::vector<QueryRequest>& requests,
    const std::vector<double>& arrivals) {
  const int64_t n = static_cast<int64_t>(requests.size());
  CROWDTOPK_CHECK_EQ(n, static_cast<int64_t>(arrivals.size()));
  CROWDTOPK_CHECK(!replayed_ || options_.persist.dir.empty());
  CROWDTOPK_CHECK(!replayed_ || options_.trace_dir.empty());
  for (int64_t i = 0; i < n; ++i) {
    CROWDTOPK_CHECK(requests[i].algorithm != nullptr);
    CROWDTOPK_CHECK(requests[i].dataset != nullptr);
    CROWDTOPK_CHECK_GE(requests[i].k, 1);
    // One algorithm instance serves many concurrent queries.
    CROWDTOPK_CHECK(requests[i].algorithm->concurrent_runs_safe());
    if (i > 0) CROWDTOPK_CHECK(arrivals[i - 1] <= arrivals[i]);
    CROWDTOPK_CHECK(!replayed_ || requests[i].cache_universe >= 0);
  }
  replayed_ = true;

  requests_ = &requests;
  outcomes_.assign(n, QueryOutcome());
  scheduler_ = std::make_unique<BatchScheduler>(options_.schedule,
                                                options_.seed, pool_.get());
  if (cache_ != nullptr) {
    // Resolve cache universes: explicit request values win; otherwise one
    // universe per distinct dataset pointer, numbered past the largest
    // explicit id in first-seen request order.
    universes_.assign(n, -1);
    int64_t next_universe = 0;
    for (const QueryRequest& request : requests) {
      next_universe = std::max(next_universe, request.cache_universe + 1);
    }
    std::unordered_map<const data::Dataset*, int64_t> by_dataset;
    for (int64_t i = 0; i < n; ++i) {
      if (requests[i].cache_universe >= 0) {
        universes_[i] = requests[i].cache_universe;
        continue;
      }
      const auto [it, inserted] =
          by_dataset.try_emplace(requests[i].dataset, next_universe);
      if (inserted) ++next_universe;
      universes_[i] = it->second;
    }
  }

  // Durable state: open (or recover) the persist directory. Failures are
  // availability-first — the replay still runs and completes, the error is
  // surfaced through persist_status() so callers can refuse to trust the
  // directory afterwards.
  if (!options_.persist.dir.empty()) {
    persist_ = std::make_unique<persist::PersistenceManager>(
        options_.persist,
        ConfigFingerprint(options_, ExportCache(), requests, arrivals));
    persist_status_ = persist_->Open();
    if (!persist_status_.ok()) {
      std::fprintf(stderr,
                   "crowdtopk persist: %s; replaying without persistence\n",
                   persist_status_.ToString().c_str());
      persist_.reset();
    }
  }

  std::vector<std::thread> drivers;
  drivers.reserve(n);
  std::deque<int64_t> admission;
  int64_t next_arrival = 0;
  int64_t inflight = 0;
  int64_t done = 0;

  while (done < n) {
    // Move due arrivals into the admission queue (or reject on overflow).
    const double now = scheduler_->now_seconds();
    while (next_arrival < n && arrivals[next_arrival] <= now) {
      const int64_t id = next_arrival++;
      if (options_.max_queue >= 0 && inflight >= options_.max_inflight &&
          static_cast<int64_t>(admission.size()) >= options_.max_queue) {
        QueryOutcome& o = outcomes_[id];
        o.rejected = true;
        o.status = util::Status::ResourceExhausted(
            "admission queue full (max_queue=" +
            std::to_string(options_.max_queue) + ")");
        ++done;
        if (persist_ != nullptr) persist_->OnEvent(persist::EncodeReject(id));
        continue;
      }
      admission.push_back(id);
    }
    // Admit FIFO into free in-flight slots; each admitted query gets its
    // own driver thread running the unmodified synchronous algorithm.
    while (!admission.empty() && inflight < options_.max_inflight) {
      const int64_t id = admission.front();
      admission.pop_front();
      const int64_t stream = requests[id].seed_stream >= 0
                                 ? requests[id].seed_stream
                                 : id;
      BatchScheduler::Query* query = scheduler_->AdmitQuery(id, stream);
      ++inflight;
      if (persist_ != nullptr) persist_->OnEvent(persist::EncodeAdmit(id));
      cache::CacheClient* client = nullptr;
      if (cache_ != nullptr) {
        // The client outlives its query until the next barrier commits what
        // it staged: SPR's selection cache publishes mid-query.
        auto& slot = clients_[id];
        slot = std::make_unique<cache::CacheClient>(
            cache_.get(), universes_[id], requests[id].cache_item_ids);
        client = slot.get();
      }
      drivers.emplace_back(
          [this, id, query, client] { DriverMain(id, query, client); });
    }

    const std::vector<int64_t> finished = scheduler_->WaitQuiescent();
    inflight -= static_cast<int64_t>(finished.size());
    done += static_cast<int64_t>(finished.size());
    SealBarrier(finished, next_arrival, done);
    if (!finished.empty()) {
      continue;  // freed slots admit waiting queries before the next round
    }
    if (inflight > 0) {
      scheduler_->ExecuteRound();
    } else if (next_arrival < n) {
      // Nothing in flight: idle forward to the next arrival.
      CROWDTOPK_CHECK_EQ(inflight, 0);
      scheduler_->AdvanceTimeTo(arrivals[next_arrival]);
    } else {
      CROWDTOPK_CHECK_EQ(done, n);
    }
  }
  for (std::thread& t : drivers) t.join();
  // Final barrier: fold the last round's publications into the stats, seal
  // them durably, and write the complete snapshot.
  if (SealBarrier({}, next_arrival, done).ok() && persist_ != nullptr) {
    KeepPersistError(persist_->Finalize([this] { return ExportCache(); }));
  }
  if (persist_ != nullptr) WritePersistTrace();

  for (int64_t id = 0; id < n; ++id) {
    QueryOutcome& o = outcomes_[id];
    o.query_id = id;
    o.algorithm = requests[id].algorithm->name();
    o.arrival_seconds = arrivals[id];
    if (o.rejected) {
      o.start_seconds = o.finish_seconds = arrivals[id];
      continue;
    }
    const QueryServeStats stats = scheduler_->QueryStats(id);
    o.status = stats.status;
    o.start_seconds = stats.admitted_seconds;
    o.finish_seconds = stats.finished_seconds;
    o.latency_seconds = stats.finished_seconds - arrivals[id];
    o.rounds_observed = stats.finished_round - stats.admitted_round;
    o.expired_assignments = stats.expired_assignments;
    o.requeued_assignments = stats.requeued_assignments;
  }
  assignment_stats_ = scheduler_->assignment_stats();
  makespan_seconds_ = scheduler_->now_seconds();
  total_rounds_ = scheduler_->round();
  return outcomes_;
}

util::Status QueryService::SealBarrier(const std::vector<int64_t>& finished,
                                      int64_t next_arrival, int64_t done) {
  // All drivers are parked or finished here: commit this round's staged
  // cache inserts so the next round's lookups see them. Their order (query
  // id, then staging order) is exactly the digest's cache-insert sequence.
  for (const auto& [id, client] : clients_) {
    const std::vector<cache::ExportedEntry> staged = client->TakeStaged();
    cache_->Commit(staged);
    if (persist_ == nullptr) continue;
    for (const cache::ExportedEntry& entry : staged) {
      persist_->OnEvent(persist::EncodeCacheInsert(entry));
    }
  }
  if (cache_ != nullptr) {
    for (const int64_t id : finished) {
      const cache::ClientStats& cs = clients_.at(id)->stats();
      retired_.hits += cs.hits;
      retired_.topups += cs.topups;
      retired_.inferred += cs.inferred;
      retired_.misses += cs.misses;
      retired_.seeded_samples += cs.seeded_samples;
      clients_.erase(id);
    }
  }
  if (persist_ == nullptr) return util::Status::Ok();
  for (const int64_t id : finished) {
    persist::CompleteRecord record;
    record.query_id = id;
    record.status_code =
        static_cast<uint32_t>(scheduler_->QueryStats(id).status.code());
    const QueryOutcome& o = outcomes_[id];
    record.total_microtasks = o.total_microtasks;
    record.rounds_private = o.rounds_private;
    record.precision_at_k = o.precision_at_k;
    record.items.assign(o.items.begin(), o.items.end());
    persist_->OnEvent(persist::EncodeComplete(record));
  }
  // Quiescence barrier: seal this iteration's events. During catch-up
  // this verifies the re-derived digest against the durable record; live,
  // it appends one WAL barrier record (and maybe a snapshot).
  const bool was_catchup = persist_->in_catchup();
  const util::Status status = persist_->OnBarrier(
      scheduler_->round(), scheduler_->now_seconds(), next_arrival, done,
      cache_ == nullptr ? 0 : cache_->num_pairs(),
      [this] { return ExportCache(); });
  if (was_catchup && !persist_->in_catchup()) {
    replayed_microtasks_ = scheduler_->assignment_stats().completed;
  }
  KeepPersistError(status);
  return status;
}

void QueryService::KeepPersistError(const util::Status& status) {
  if (status.ok() || !persist_status_.ok()) return;
  persist_status_ = status;
  std::fprintf(stderr, "crowdtopk persist: %s\n", status.ToString().c_str());
}

cache::CacheStats QueryService::cache_stats() const {
  if (cache_ == nullptr) return cache::CacheStats();
  cache::CacheStats stats = cache_->stats();
  stats.hits = retired_.hits;
  stats.topups = retired_.topups;
  stats.inferred = retired_.inferred;
  stats.misses = retired_.misses;
  stats.lookups = stats.hits + stats.topups + stats.inferred + stats.misses;
  stats.seeded_samples = retired_.seeded_samples;
  return stats;
}

std::vector<cache::ExportedEntry> QueryService::ExportCache() const {
  return cache_ == nullptr ? std::vector<cache::ExportedEntry>()
                           : cache_->Export();
}

persist::PersistCounters QueryService::persist_counters() const {
  return persist_ == nullptr ? persist::PersistCounters()
                             : persist_->counters();
}

void QueryService::WritePersistTrace() const {
  telemetry::TraceRecorder recorder;
  const persist::PersistCounters& c = persist_->counters();
  const auto record = [&recorder](const char* name, int64_t value) {
    recorder.RecordCounter(name, static_cast<double>(value));
  };
  record("persist/wal_records", c.wal_records);
  record("persist/wal_bytes", c.wal_bytes);
  record("persist/wal_segments", c.wal_segments);
  record("persist/snapshots", c.snapshots);
  record("persist/snapshot_bytes", c.snapshot_bytes);
  record("persist/resumed", c.resumed);
  record("persist/snapshot_loaded", c.snapshot_loaded);
  record("persist/snapshots_skipped", c.snapshots_skipped);
  record("persist/durable_barrier", c.durable_barrier);
  record("persist/replayed_barriers", c.replayed_barriers);
  record("persist/verified_barriers", c.verified_barriers);
  record("persist/divergent_barriers", c.divergent_barriers);
  record("persist/cache_image_verified", c.cache_image_verified);
  record("persist/cache_image_divergent", c.cache_image_divergent);
  record("persist/wal_records_recovered", c.wal_records_recovered);
  record("persist/wal_records_dropped", c.wal_records_dropped);
  record("persist/wal_bytes_dropped", c.wal_bytes_dropped);
  record("persist/wal_truncated", c.wal_truncated);
  record("persist/replayed_microtasks", replayed_microtasks_);
  if (cache_ != nullptr) {
    const cache::CacheStats cs = cache_->stats();
    record("cache/restored", cs.restored);
    for (const auto& [universe, dropped] : cs.dropped_by_universe) {
      record(("cache/universe" + std::to_string(universe) + "/dropped")
                 .c_str(),
             dropped);
    }
  }
  const util::Status status = telemetry::WriteJsonlFile(
      recorder.events(), options_.persist.dir + "/persist.trace.jsonl");
  if (!status.ok()) {
    std::fprintf(stderr, "persist trace: %s\n", status.ToString().c_str());
  }
}

void QueryService::DriverMain(int64_t query_id, BatchScheduler::Query* query,
                              cache::CacheClient* client) {
  const QueryRequest& request = (*requests_)[query_id];
  const int64_t stream =
      request.seed_stream >= 0 ? request.seed_stream : query_id;
  AsyncPlatform platform(request.dataset,
                         util::SplitSeed(judgment_seed_, stream), query);
  telemetry::TraceRecorder recorder;
  const bool tracing = !options_.trace_dir.empty();
  if (tracing) platform.SetRecorder(&recorder);
  if (client != nullptr) platform.SetCacheClient(client);

  const core::TopKResult result = request.algorithm->Run(&platform, request.k);
  // Flush trailing purchases so the query never finishes with microtasks
  // still queued at the crowd.
  platform.Drain();

  QueryOutcome& o = outcomes_[query_id];
  o.items = result.items;
  o.total_microtasks = platform.total_microtasks();
  o.rounds_private = platform.rounds();
  o.precision_at_k =
      metrics::PrecisionAtK(*request.dataset, result.items, request.k);
  if (client != nullptr) {
    const cache::ClientStats& cs = client->stats();
    o.cache_hits = cs.hits;
    o.cache_topups = cs.topups;
    o.cache_inferred = cs.inferred;
    o.cache_misses = cs.misses;
    o.cache_seeded_samples = cs.seeded_samples;
    if (tracing) {
      recorder.RecordCounter("cache/hits", static_cast<double>(cs.hits));
      recorder.RecordCounter("cache/topups", static_cast<double>(cs.topups));
      recorder.RecordCounter("cache/inferred",
                             static_cast<double>(cs.inferred));
      recorder.RecordCounter("cache/misses", static_cast<double>(cs.misses));
      recorder.RecordCounter("cache/seeded_samples",
                             static_cast<double>(cs.seeded_samples));
    }
  }

  if (tracing) {
    // The serve counters are stable here: the clock is frozen while this
    // driver runs, and a drained query has no assignments left in flight.
    const QueryServeStats& stats = query->stats();
    recorder.RecordCounter("serve/expired_assignments",
                           static_cast<double>(stats.expired_assignments));
    recorder.RecordCounter("serve/requeued_assignments",
                           static_cast<double>(stats.requeued_assignments));
    recorder.RecordCounter("serve/failed_assignments",
                           static_cast<double>(stats.failed_assignments));
    DumpQueryTrace(recorder, request, query_id);
  }
  query->Finish();
}

void QueryService::DumpQueryTrace(const telemetry::TraceRecorder& recorder,
                                  const QueryRequest& request,
                                  int64_t query_id) const {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "serve_q%05lld_",
                static_cast<long long>(query_id));
  const std::string stem = options_.trace_dir + "/" + suffix +
                           FileToken(request.algorithm->name());
  const util::Status status =
      telemetry::WriteJsonlFile(recorder.events(), stem + ".trace.jsonl");
  if (!status.ok()) {
    std::fprintf(stderr, "serve trace: %s\n", status.ToString().c_str());
    return;
  }
  metrics::PhaseTable(metrics::AggregateByPhaseRollup(recorder.events()),
                      request.algorithm->name())
      .WriteCsv(stem + ".phases.csv");
}

}  // namespace crowdtopk::serve
