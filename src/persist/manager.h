// PersistenceManager: the serving layer's single entry point into the
// durability subsystem.
//
// The serving replay is a pure function of (options, seed, trace), so a
// resumed process re-executes it from time zero and every judgment,
// latency, and scheduling decision regenerates bit-identically. What the
// durable state adds on top of that re-execution:
//
//   * the durable frontier — barriers at or below it are *catch-up*:
//     their records are already on disk, nothing is appended, and the
//     crowd work they contain is accounted as replayed rather than
//     re-purchased;
//   * verification — each catch-up barrier's re-derived chained digest is
//     compared against the recovered record (and, at a snapshot barrier,
//     the regenerated judgment-cache image against the snapshot's image
//     digest), making "byte-identical warm state" a checked property
//     instead of an assumption;
//   * live durability past the frontier — one framed, CRC'd, optionally
//     fsynced WAL barrier record per quiescence barrier; a periodic
//     snapshot at least `snapshot_every` barriers after the last one, and
//     only once the judgment cache has doubled since the last image; the
//     complete image at Finalize; older artifacts pruned.
//
// The manager is driven from the service thread only (OnEvent between
// barriers, OnBarrier at each quiescence point); it has no locking of its
// own. A caller without a persist directory builds no manager.

#ifndef CROWDTOPK_PERSIST_MANAGER_H_
#define CROWDTOPK_PERSIST_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "util/status.h"

namespace crowdtopk::persist {

struct PersistOptions {
  // Persist directory; empty turns persistence off (QueryService then
  // builds no manager).
  std::string dir;
  // Minimum barriers between periodic snapshots. A barrier this far past
  // the last snapshot takes one only if the generation has none yet or the
  // judgment cache has doubled since the last image (manager.cc).
  // <= 0 writes only the final snapshot.
  int64_t snapshot_every = 8;
  // fdatasync each WAL batch before proceeding past its barrier.
  bool wal_fsync = true;
  // WAL segment rotation threshold.
  int64_t wal_segment_bytes = int64_t{1} << 20;
  // Resume from the directory's existing state instead of starting a
  // fresh generation (which clears previous wal/snapshot/manifest files).
  bool resume = false;
  // Crash injection: _Exit(137) immediately after this barrier's WAL
  // batch is durable (before any snapshot it would have triggered).
  // < 0 disables.
  int64_t kill_at_barrier = -1;
  // Fail-stop injection for in-process tests: like kill_at_barrier but
  // silently stops persisting instead of exiting, so the run completes
  // and the directory looks exactly as a crash would have left it
  // (minus the torn tail). < 0 disables.
  int64_t halt_after_barrier = -1;
};

struct PersistCounters {
  // Writer side.
  int64_t wal_records = 0;
  int64_t wal_bytes = 0;
  int64_t wal_segments = 0;
  int64_t snapshots = 0;
  int64_t snapshot_bytes = 0;  // last snapshot's size
  // Recovery side.
  int64_t resumed = 0;  // 1 when Open() ran recovery
  int64_t snapshot_loaded = 0;
  int64_t snapshots_skipped = 0;  // corrupt snapshots fallen past
  int64_t durable_barrier = -1;   // frontier at Open() time
  int64_t replayed_barriers = 0;  // catch-up barriers re-executed
  int64_t verified_barriers = 0;  // digest-checked against durable records
  int64_t divergent_barriers = 0; // digest mismatches (0 in a healthy run)
  int64_t cache_image_verified = 0;
  int64_t cache_image_divergent = 0;
  int64_t wal_records_recovered = 0;
  int64_t wal_records_dropped = 0;
  int64_t wal_bytes_dropped = 0;
  int64_t wal_truncated = 0;
};

class PersistenceManager {
 public:
  // Exports the judgment cache's committed entries at the current barrier
  // (empty without a cache); invoked only when a snapshot is due or a
  // snapshot barrier needs cache verification. The manager fills in every
  // other SnapshotData field.
  using CacheImageSource = std::function<std::vector<cache::ExportedEntry>()>;

  // `options.dir` must not be empty.
  PersistenceManager(const PersistOptions& options,
                     uint64_t config_fingerprint);

  PersistenceManager(const PersistenceManager&) = delete;
  PersistenceManager& operator=(const PersistenceManager&) = delete;

  // Prepares the directory: fresh generation (clear + manifest) or
  // recovery (resume). FailedPrecondition on a configuration-fingerprint
  // mismatch; the caller decides whether to run without persistence.
  util::Status Open();

  // True while re-executing barriers that are already durable.
  bool in_catchup() const {
    return next_barrier_ <= counters_.durable_barrier;
  }

  // Hashes one event encoding (an Encode* payload from format.h other than
  // EncodeBarrier) into the running digest; nothing is stored. Call
  // between barriers in the event order of docs/PERSISTENCE.md.
  void OnEvent(const std::string& payload);

  // Seals the events since the previous barrier: verifies during catch-up,
  // appends the barrier record + maybe snapshots when live. `round`,
  // `now_seconds`, `next_arrival`, `done` describe the replay position;
  // `cache_pairs` is the committed cache size (the size `source` would
  // export), which decides whether a snapshot is due without exporting.
  util::Status OnBarrier(int64_t round, double now_seconds,
                         int64_t next_arrival, int64_t done,
                         int64_t cache_pairs, const CacheImageSource& source);

  // Writes the final (complete) snapshot and prunes old artifacts.
  util::Status Finalize(const CacheImageSource& source);

  const PersistCounters& counters() const { return counters_; }
  const RecoveredState* recovered() const {
    return recovered_ ? recovered_.get() : nullptr;
  }

 private:
  // Checks a re-derived catch-up barrier against the durable record.
  void VerifyCatchup(const BarrierRecord& derived,
                     const CacheImageSource& source);
  util::Status TakeSnapshot(const CacheImageSource& source, bool complete);
  util::Status Prune();

  const PersistOptions options_;
  const uint64_t config_fingerprint_;

  std::unique_ptr<WalWriter> writer_;
  std::unique_ptr<RecoveredState> recovered_;

  // Chained over event payloads only (not barrier records), restarting
  // from the FNV offset basis at barrier 0 — identical for fresh and
  // resumed runs.
  uint64_t digest_;

  int64_t next_barrier_ = 0;
  BarrierRecord last_barrier_;
  bool sealed_any_ = false;
  int64_t last_snapshot_barrier_ = -1;  // -1: none written or recovered
  int64_t last_snapshot_pairs_ = 0;     // cache entries in that image
  bool halted_ = false;
  int divergence_warnings_ = 0;

  PersistCounters counters_;
};

}  // namespace crowdtopk::persist

#endif  // CROWDTOPK_PERSIST_MANAGER_H_
