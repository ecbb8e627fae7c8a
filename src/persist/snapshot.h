// Snapshot: what recovery reads back at one quiescence barrier.
//
// A snapshot holds the barrier position and chained digest, the serving
// configuration fingerprint, the first WAL segment written after it, and
// the judgment cache's committed entries in canonical order with
// bit-exact Welford summaries. Answers themselves are never stored: a
// resumed run re-executes the replay and checks it against the barrier
// digest and the cache image, and a warm restart reuses the image.
// Snapshots are written atomically (tmp + fsync + rename + dir fsync) and
// carry a whole-payload CRC32, so a reader observes either a complete image
// or none; a corrupt snapshot makes recovery fall back to the previous one.

#ifndef CROWDTOPK_PERSIST_SNAPSHOT_H_
#define CROWDTOPK_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cache/judgment_cache.h"
#include "persist/format.h"
#include "util/status.h"

namespace crowdtopk::persist {

struct SnapshotData {
  // Position: the barrier this image was taken at, plus the running digest
  // (BarrierRecord::digest) catch-up verification compares against.
  BarrierRecord barrier;
  // FNV-1a fingerprint of the serving configuration; resume refuses to
  // proceed when it does not match the live run's.
  uint64_t config_fingerprint = 0;
  // The run finished cleanly (Finalize wrote this image).
  bool complete = false;
  // First WAL segment with records after this snapshot; older segments
  // are pruned once the snapshot is durable.
  int64_t next_wal_segment = 0;

  // Judgment-cache image: canonical order (universe, pair, kind), entries
  // bit-exact. `cache_digest` is CacheImageDigest(cache_entries), stored so
  // catch-up can verify the regenerated cache without re-reading disk.
  std::vector<cache::ExportedEntry> cache_entries;
  uint64_t cache_digest = 0;
};

// FNV-1a over the encoded cache image; the cache-equivalence check used by
// resume verification and the tests.
uint64_t CacheImageDigest(const std::vector<cache::ExportedEntry>& entries);

// Serialises `data` to `path` atomically. Fills bytes_written when
// non-null. `data.cache_digest` is recomputed from `data.cache_entries`.
util::Status WriteSnapshot(const std::string& path, const SnapshotData& data,
                           int64_t* bytes_written = nullptr);

// Parses a snapshot; InvalidArgument on a bad magic, a version other than
// kSnapshotVersion, a bad CRC, or a malformed payload.
util::Status ReadSnapshot(const std::string& path, SnapshotData* out);

}  // namespace crowdtopk::persist

#endif  // CROWDTOPK_PERSIST_SNAPSHOT_H_
