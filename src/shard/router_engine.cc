#include "shard/router_engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "shard/local_backend.h"
#include "shard/remote_backend.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/random.h"

namespace crowdtopk::shard {
namespace {

// Submission sanity bounds; a request outside them gets INVALID_ARGUMENT.
constexpr int64_t kMaxK = 10000;
constexpr int64_t kMaxBudget = int64_t{1} << 30;

}  // namespace

RouterEngine::RouterEngine(const net::ServerOptions& options,
                           const RouterEngineConfig& config,
                           std::function<void()> wake)
    : options_(options),
      config_(config),
      dataset_factory_(options.dataset_factory
                           ? options.dataset_factory
                           : net::DefaultDatasetFactory()),
      algorithm_factory_(options.algorithm_factory
                             ? options.algorithm_factory
                             : net::DefaultAlgorithmFactory()),
      wake_(std::move(wake)),
      remote_(!config.ports.empty()) {
  std::vector<std::unique_ptr<ShardBackend>> backends;
  if (remote_) {
    for (const int64_t port : config_.ports) {
      net::ClientOptions client_options;
      client_options.port = port;
      client_options.clock = options_.clock;
      auto backend = std::make_unique<RemoteShardBackend>(client_options);
      remote_backends_.push_back(backend.get());
      backends.push_back(std::move(backend));
    }
  } else {
    const int64_t shards = config_.shards < 1 ? 1 : config_.shards;
    for (int64_t s = 0; s < shards; ++s) {
      LocalShardBackend::Options backend_options;
      backend_options.seed = options_.seed;
      backend_options.schedule = options_.schedule;
      backend_options.max_inflight = options_.max_inflight;
      backend_options.jobs = options_.jobs;
      backend_options.cache = options_.cache;
      if (s == config_.fail_shard) {
        backend_options.fail_at_batch = config_.fail_at_batch;
      }
      backends.push_back(
          std::make_unique<LocalShardBackend>(backend_options));
    }
  }
  RouterOptions router_options;
  router_options.max_redispatch = config_.max_redispatch;
  router_options.cache_sync = config_.cache_sync;
  router_options.cache = options_.cache;
  router_ = std::make_unique<ShardRouter>(router_options,
                                          std::move(backends));
  thread_ = std::thread([this] { ThreadMain(); });
}

RouterEngine::~RouterEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

const data::Dataset* RouterEngine::ResolveDatasetLocked(
    const std::string& name, int64_t* universe) {
  const auto it = datasets_.find(name);
  if (it != datasets_.end()) {
    *universe = universes_[name];
    return it->second.get();
  }
  // Per-name seed stream: dataset content is a pure function of (master
  // seed, name) — and therefore the same on a front router and on every
  // remote shard started with the same seed.
  std::unique_ptr<data::Dataset> dataset = dataset_factory_(
      name, util::SplitSeed(options_.seed, util::Fnv1a64(name)));
  if (dataset == nullptr) return nullptr;
  const int64_t id = static_cast<int64_t>(universes_.size());
  universes_.emplace(name, id);
  *universe = id;
  return datasets_.emplace(name, std::move(dataset)).first->second.get();
}

util::StatusOr<int64_t> RouterEngine::Submit(int64_t conn_id,
                                             const net::SubmitQuery& spec) {
  if (spec.k < 1 || spec.k > kMaxK) {
    return util::Status::InvalidArgument("k out of range");
  }
  if (!(spec.alpha > 0.0 && spec.alpha < 1.0)) {
    return util::Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (spec.budget < 0 || spec.budget > kMaxBudget) {
    return util::Status::InvalidArgument("budget out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return util::Status::Unavailable("router is draining");
  }
  if (options_.max_queue >= 0 &&
      static_cast<int64_t>(queue_.size()) >= options_.max_queue) {
    return util::Status::ResourceExhausted("admission queue full");
  }
  RoutedQuery query;
  query.dataset = spec.dataset;
  query.algo = spec.algo;
  query.k = spec.k;
  query.alpha = spec.alpha;
  query.budget = spec.budget;
  if (remote_) {
    // Names are validated by the far server; the placement universe is
    // still assigned here, per distinct name, so routing stays keyed on
    // the universe in both deployments.
    const auto inserted = universes_.emplace(
        spec.dataset, static_cast<int64_t>(universes_.size()));
    query.universe = inserted.first->second;
  } else {
    const data::Dataset* dataset =
        ResolveDatasetLocked(spec.dataset, &query.universe);
    if (dataset == nullptr) {
      return util::Status::InvalidArgument("unknown dataset '" +
                                           spec.dataset + "'");
    }
    if (spec.k > dataset->num_items()) {
      return util::Status::InvalidArgument(
          "k exceeds the " + std::to_string(dataset->num_items()) +
          " items of '" + spec.dataset + "'");
    }
    judgment::ComparisonOptions comparison;
    comparison.alpha = spec.alpha;
    if (spec.budget > 0) comparison.budget = spec.budget;
    query.algorithm = algorithm_factory_(spec.algo, comparison);
    if (query.algorithm == nullptr) {
      return util::Status::InvalidArgument("unknown algorithm '" +
                                           spec.algo + "'");
    }
    query.dataset_ptr = dataset;
  }
  // A client's stamp keys the outcome when present (this router is a
  // remote shard of another); otherwise the wire id does.
  const int64_t id = next_query_id_++;
  query.global_id = spec.seed_stream >= 0 ? spec.seed_stream : id;
  Record& record = records_[id];
  record.conn_id = conn_id;
  record.query = std::move(query);
  record.state = net::QueryState::kQueued;
  queue_.push_back(id);
  cv_.notify_all();
  return id;
}

net::QueryState RouterEngine::State(int64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(query_id);
  if (it != records_.end()) return it->second.state;
  return done_ids_.count(query_id) ? net::QueryState::kDone
                                   : net::QueryState::kUnknown;
}

bool RouterEngine::Cancel(int64_t query_id, int64_t* submitter_conn) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(query_id);
  if (it == records_.end() || it->second.state != net::QueryState::kQueued) {
    return false;
  }
  *submitter_conn = it->second.conn_id;
  queue_.erase(std::find(queue_.begin(), queue_.end(), query_id));
  records_.erase(it);
  return true;
}

void RouterEngine::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  cv_.notify_all();
}

void RouterEngine::AbortQueued() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const int64_t id : queue_) {
    net::Completion c;
    c.conn_id = records_[id].conn_id;
    c.query_id = id;
    c.send_error = true;
    c.error_code = net::ErrorCode::kUnavailable;
    c.error_message = "drain timeout";
    completions_.push_back(std::move(c));
    records_.erase(id);
  }
  queue_.clear();
  cv_.notify_all();
}

std::vector<net::Completion> RouterEngine::TakeCompletions() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<net::Completion> taken = std::move(completions_);
  completions_.clear();
  return taken;
}

bool RouterEngine::Drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_ && queue_.empty() && !running_ && completions_.empty();
}

int64_t RouterEngine::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

int64_t RouterEngine::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

// The retry/redial sums are cached under mu_ by the engine thread after
// every routed batch: net::Client counters are plain fields owned by that
// thread, and Stats() asks from the network thread mid-run.
int64_t RouterEngine::upstream_retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_retries_;
}

int64_t RouterEngine::upstream_redials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_redials_;
}

std::string RouterEngine::MergedReport() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RoutedOutcome> outcomes;
  outcomes.reserve(done_.size());
  for (const Done& done : done_) outcomes.push_back(done.outcome);
  return RenderMergedReport(*router_, outcomes);
}

RouterCounters RouterEngine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return router_->counters();
}

void RouterEngine::DumpTrace() const {
  if (options_.trace_dir.empty()) return;
  telemetry::TraceRecorder recorder;
  const RouterCounters c = counters();
  const auto record = [&recorder](const std::string& name, int64_t value) {
    recorder.RecordCounter(name, static_cast<double>(value));
  };
  record("shard/shards", router_->num_shards());
  record("shard/healthy", router_->healthy_shards());
  record("shard/routed_queries", c.routed_queries);
  record("shard/waves", c.waves);
  record("shard/batches", c.shard_batches);
  record("shard/failures", c.shard_failures);
  record("shard/redispatched_queries", c.redispatched_queries);
  record("shard/repurchased_microtasks", c.repurchased_microtasks);
  record("shard/exhausted_queries", c.exhausted_queries);
  record("shard/cache_sync_rounds", c.cache_sync_rounds);
  record("shard/cache_entries_gossiped", c.cache_entries_gossiped);
  record("shard/upstream_retries", upstream_retries());
  record("shard/upstream_redials", upstream_redials());
  const util::Status status = telemetry::WriteJsonlFile(
      recorder.events(), options_.trace_dir + "/shard_router.trace.jsonl");
  if (!status.ok()) {
    std::fprintf(stderr, "shard trace: %s\n", status.ToString().c_str());
  }
}

void RouterEngine::ThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock,
             [this] { return stop_ || draining_ || !queue_.empty(); });
    if (stop_) return;
    if (queue_.empty()) {
      if (draining_) {
        lock.unlock();
        wake_();
        lock.lock();
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_) return;
      }
      continue;
    }

    // Drain the queue into one routed batch, submission order preserved.
    const std::vector<int64_t> ids(queue_.begin(), queue_.end());
    queue_.clear();
    std::vector<RoutedQuery> batch(ids.size());
    std::vector<int64_t> conn_ids(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      Record& record = records_[ids[i]];
      record.state = net::QueryState::kRunning;
      batch[i] = record.query;
      conn_ids[i] = record.conn_id;
    }
    running_ = true;
    lock.unlock();

    std::vector<RoutedOutcome> routed = router_->RouteBatch(std::move(batch));

    int64_t retries = 0;
    int64_t redials = 0;
    for (const RemoteShardBackend* backend : remote_backends_) {
      retries += backend->client_retries();
      redials += backend->client_redials();
    }

    lock.lock();
    running_ = false;
    ++batches_;
    cached_retries_ = retries;
    cached_redials_ = redials;
    CROWDTOPK_CHECK(routed.size() == ids.size());
    for (size_t i = 0; i < routed.size(); ++i) {
      const RoutedOutcome& o = routed[i];
      const int64_t id = ids[i];
      net::Completion c;
      c.conn_id = conn_ids[i];
      c.query_id = id;
      net::Result& r = c.result;
      r.query_id = id;
      r.status_code = static_cast<uint32_t>(o.result.status.code());
      r.message = o.result.status.ok() ? "" : o.result.status.message();
      r.items.assign(o.result.items.begin(), o.result.items.end());
      r.precision_at_k = o.result.precision_at_k;
      r.total_microtasks = o.result.total_microtasks;
      r.rounds = o.result.rounds_observed;
      r.latency_seconds = o.result.latency_seconds;
      r.queue_wait_seconds = o.result.queue_wait_seconds;
      r.shard_id = o.shard_id;
      completions_.push_back(std::move(c));
      records_.erase(id);
      RememberDoneLocked(id, o);
    }
    lock.unlock();
    wake_();
    lock.lock();
  }
}

void RouterEngine::RememberDoneLocked(int64_t id,
                                      const RoutedOutcome& outcome) {
  done_ids_.insert(id);
  done_.push_back(Done{id, outcome});
  // The algorithm instance dies with its query; State() and MergedReport()
  // never read it.
  done_.back().outcome.query.algorithm.reset();
  while (done_.size() > kRemembered) {
    done_ids_.erase(done_.front().query_id);
    done_.pop_front();
  }
}

}  // namespace crowdtopk::shard
