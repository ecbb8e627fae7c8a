#include "persist/manager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/crc32.h"
#include "util/file_io.h"

namespace crowdtopk::persist {

namespace {

constexpr int kMaxDivergenceWarnings = 5;

// A periodic snapshot waits until the judgment cache holds at least this
// many times the last image's pairs. Each periodic image is then at most
// half the next, so they sum to under two final images, and with the
// final one all the images a run writes add up to at most about three:
// snapshot cost follows the cache's size, not the number of barriers.
constexpr int64_t kSnapshotGrowth = 2;

bool BitsEqual(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

bool SameBarrier(const BarrierRecord& a, const BarrierRecord& b) {
  return a.barrier == b.barrier && a.round == b.round &&
         BitsEqual(a.now_seconds, b.now_seconds) &&
         a.next_arrival == b.next_arrival && a.done == b.done &&
         a.digest == b.digest;
}

}  // namespace

PersistenceManager::PersistenceManager(const PersistOptions& options,
                                       uint64_t config_fingerprint)
    : options_(options),
      config_fingerprint_(config_fingerprint),
      digest_(util::kFnv1a64Init) {}

util::Status PersistenceManager::Open() {
  if (!enabled()) return util::Status::Ok();
  CROWDTOPK_RETURN_IF_ERROR(util::EnsureDirectory(options_.dir));

  WalWriterOptions writer_options;
  writer_options.dir = options_.dir;
  writer_options.segment_bytes = options_.wal_segment_bytes;
  writer_options.fsync = options_.wal_fsync;

  if (options_.resume) {
    auto recovered = Recover(options_.dir, config_fingerprint_);
    if (!recovered.ok()) return recovered.status();
    recovered_ =
        std::make_unique<RecoveredState>(std::move(recovered).value());
    counters_.resumed = 1;
    counters_.snapshot_loaded = recovered_->has_snapshot ? 1 : 0;
    counters_.snapshots_skipped = recovered_->snapshots_skipped;
    counters_.durable_barrier = recovered_->durable_barrier;
    counters_.wal_records_recovered = recovered_->wal_records;
    counters_.wal_records_dropped = recovered_->wal_records_dropped;
    counters_.wal_bytes_dropped = recovered_->wal_bytes_dropped;
    counters_.wal_truncated = recovered_->wal_truncated ? 1 : 0;
    if (recovered_->has_snapshot) {
      last_snapshot_barrier_ = recovered_->snapshot.barrier.barrier;
      last_snapshot_pairs_ =
          static_cast<int64_t>(recovered_->snapshot.cache_entries.size());
    }
    if (recovered_->wal_truncated) {
      std::fprintf(stderr,
                   "crowdtopk persist: WAL tail damaged (%s); dropped %lld "
                   "records / %lld bytes, resuming from barrier %lld\n",
                   recovered_->wal_detail.c_str(),
                   static_cast<long long>(recovered_->wal_records_dropped),
                   static_cast<long long>(recovered_->wal_bytes_dropped),
                   static_cast<long long>(recovered_->durable_barrier));
    }
    writer_ = std::make_unique<WalWriter>(writer_options,
                                          recovered_->next_wal_segment);
    if (!recovered_->manifest_found) {
      CROWDTOPK_RETURN_IF_ERROR(
          WriteManifest(options_.dir, config_fingerprint_));
    }
    return util::Status::Ok();
  }

  // Fresh generation: previous artifacts (ours only) are cleared so stale
  // segments can never interleave with the new run's records.
  std::vector<std::string> names;
  CROWDTOPK_RETURN_IF_ERROR(util::ListDirectoryFiles(options_.dir, &names));
  for (const std::string& name : names) {
    int64_t ignored = 0;
    if (ParseWalSegmentName(name, &ignored) ||
        ParseSnapshotName(name, &ignored) || name == "manifest.bin" ||
        name == "persist.trace.jsonl") {
      CROWDTOPK_RETURN_IF_ERROR(
          util::RemoveFileIfExists(options_.dir + "/" + name));
    }
  }
  CROWDTOPK_RETURN_IF_ERROR(WriteManifest(options_.dir, config_fingerprint_));
  writer_ = std::make_unique<WalWriter>(writer_options, 0);
  return util::Status::Ok();
}

void PersistenceManager::OnEvent(const std::string& payload) {
  if (enabled()) digest_ = util::Fnv1a64(payload, digest_);
}

void PersistenceManager::VerifyCatchup(const BarrierRecord& derived,
                                       const CacheImageSource& source) {
  ++counters_.replayed_barriers;
  const BarrierRecord* durable = nullptr;
  const bool at_snapshot =
      recovered_->has_snapshot &&
      derived.barrier == recovered_->snapshot.barrier.barrier;
  if (at_snapshot) {
    durable = &recovered_->snapshot.barrier;
  } else {
    auto it = recovered_->barriers.find(derived.barrier);
    if (it != recovered_->barriers.end()) durable = &it->second;
  }
  if (durable != nullptr) {
    if (SameBarrier(derived, *durable)) {
      ++counters_.verified_barriers;
    } else {
      ++counters_.divergent_barriers;
      if (divergence_warnings_ < kMaxDivergenceWarnings) {
        ++divergence_warnings_;
        std::fprintf(stderr,
                     "crowdtopk persist: catch-up diverged at barrier %lld "
                     "(digest %016llx vs durable %016llx)\n",
                     static_cast<long long>(derived.barrier),
                     static_cast<unsigned long long>(derived.digest),
                     static_cast<unsigned long long>(durable->digest));
      }
    }
  }
  if (at_snapshot) {
    // The regenerated judgment cache must match the snapshot image
    // bit-for-bit at the barrier the image was taken.
    if (CacheImageDigest(source()) == recovered_->snapshot.cache_digest) {
      ++counters_.cache_image_verified;
    } else {
      ++counters_.cache_image_divergent;
      std::fprintf(stderr,
                   "crowdtopk persist: regenerated cache image diverges from "
                   "snapshot at barrier %lld\n",
                   static_cast<long long>(derived.barrier));
    }
  }
}

util::Status PersistenceManager::OnBarrier(int64_t round, double now_seconds,
                                           int64_t next_arrival, int64_t done,
                                           int64_t cache_pairs,
                                           const CacheImageSource& source) {
  if (!enabled()) return util::Status::Ok();
  const int64_t seq = next_barrier_++;
  BarrierRecord record;
  record.barrier = seq;
  record.round = round;
  record.now_seconds = now_seconds;
  record.next_arrival = next_arrival;
  record.done = done;
  record.digest = digest_;
  last_barrier_ = record;
  sealed_any_ = true;

  if (seq <= counters_.durable_barrier) {
    VerifyCatchup(record, source);
    return util::Status::Ok();
  }
  if (halted_) return util::Status::Ok();

  CROWDTOPK_RETURN_IF_ERROR(writer_->AppendBatch({EncodeBarrier(record)}));
  counters_.wal_records = writer_->counters().records;
  counters_.wal_bytes = writer_->counters().bytes;
  counters_.wal_segments = writer_->counters().segments;

  if (options_.kill_at_barrier == seq) {
    std::fprintf(stderr,
                 "crowdtopk persist: injected crash after barrier %lld\n",
                 static_cast<long long>(seq));
    std::fflush(nullptr);
    std::_Exit(137);
  }
  if (options_.halt_after_barrier == seq) {
    halted_ = true;
    return util::Status::Ok();
  }

  if (options_.snapshot_every > 0 &&
      seq - last_snapshot_barrier_ >= options_.snapshot_every &&
      (last_snapshot_barrier_ < 0 ||
       cache_pairs >= std::max(kSnapshotGrowth * last_snapshot_pairs_,
                               last_snapshot_pairs_ + 1))) {
    CROWDTOPK_RETURN_IF_ERROR(TakeSnapshot(source, /*complete=*/false));
  }
  return util::Status::Ok();
}

util::Status PersistenceManager::TakeSnapshot(const CacheImageSource& source,
                                              bool complete) {
  SnapshotData data;
  data.cache_entries = source();
  data.barrier = last_barrier_;
  data.config_fingerprint = config_fingerprint_;
  data.complete = complete;
  data.next_wal_segment = writer_->next_clean_segment();
  const std::string path =
      options_.dir + "/" + SnapshotName(data.barrier.barrier);
  int64_t bytes = 0;
  CROWDTOPK_RETURN_IF_ERROR(WriteSnapshot(path, data, &bytes));
  ++counters_.snapshots;
  counters_.snapshot_bytes = bytes;
  last_snapshot_barrier_ = data.barrier.barrier;
  last_snapshot_pairs_ = static_cast<int64_t>(data.cache_entries.size());
  writer_->Rotate();
  return Prune();
}

util::Status PersistenceManager::Prune() {
  // The latest snapshot makes every earlier segment redundant; the
  // previous snapshot is kept as the fallback should the newest one prove
  // unreadable (in which case its own segments are gone and recovery
  // degrades to the older barrier — still safe, just a longer catch-up).
  std::vector<std::string> names;
  CROWDTOPK_RETURN_IF_ERROR(util::ListDirectoryFiles(options_.dir, &names));
  std::vector<int64_t> snapshots;
  for (const std::string& name : names) {
    int64_t barrier = 0;
    if (ParseSnapshotName(name, &barrier)) snapshots.push_back(barrier);
  }
  std::sort(snapshots.rbegin(), snapshots.rend());
  for (size_t i = 2; i < snapshots.size(); ++i) {
    CROWDTOPK_RETURN_IF_ERROR(util::RemoveFileIfExists(
        options_.dir + "/" + SnapshotName(snapshots[i])));
  }
  const int64_t keep_from = writer_->current_segment();
  for (const std::string& name : names) {
    int64_t seq = 0;
    if (ParseWalSegmentName(name, &seq) && seq < keep_from) {
      CROWDTOPK_RETURN_IF_ERROR(
          util::RemoveFileIfExists(options_.dir + "/" + name));
    }
  }
  return util::Status::Ok();
}

util::Status PersistenceManager::Finalize(const CacheImageSource& source) {
  if (!enabled() || halted_ || !sealed_any_) return util::Status::Ok();
  if (last_barrier_.barrier <= counters_.durable_barrier &&
      recovered_ != nullptr && recovered_->has_snapshot &&
      recovered_->snapshot.complete) {
    // Resumed a run that had already finalised; the directory is current.
    return util::Status::Ok();
  }
  return TakeSnapshot(source, /*complete=*/true);
}

}  // namespace crowdtopk::persist
