#include "persist/recovery.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/file_io.h"

namespace crowdtopk::persist {

namespace {

constexpr uint64_t kManifestMagic = 0x46494e414d344b54ULL;  // "TK4MANIF"
constexpr char kManifestName[] = "manifest.bin";

// Snapshot barriers present in `dir`, newest first.
std::vector<int64_t> SnapshotBarriers(const std::string& dir) {
  std::vector<std::string> names;
  std::vector<int64_t> barriers;
  if (!util::ListDirectoryFiles(dir, &names).ok()) return barriers;
  for (const std::string& name : names) {
    int64_t barrier = 0;
    if (ParseSnapshotName(name, &barrier)) barriers.push_back(barrier);
  }
  std::sort(barriers.rbegin(), barriers.rend());
  return barriers;
}

int64_t MinWalSegment(const std::string& dir) {
  std::vector<std::string> names;
  if (!util::ListDirectoryFiles(dir, &names).ok()) return -1;
  int64_t min_seq = -1;
  for (const std::string& name : names) {
    int64_t seq = 0;
    if (ParseWalSegmentName(name, &seq) && (min_seq < 0 || seq < min_seq)) {
      min_seq = seq;
    }
  }
  return min_seq;
}

}  // namespace

util::Status WriteManifest(const std::string& dir, uint64_t fingerprint) {
  Encoder enc;
  enc.PutU64(kManifestMagic);
  enc.PutU32(kFormatVersion);
  enc.PutU64(fingerprint);
  enc.PutU32(util::Crc32(enc.buffer()));
  return util::WriteFileAtomic(dir + "/" + kManifestName, enc.Take());
}

util::Status ReadManifest(const std::string& dir, uint64_t* fingerprint) {
  const std::string path = dir + "/" + kManifestName;
  if (util::FileSize(path) < 0) {
    return util::Status::NotFound("no manifest in " + dir);
  }
  std::string bytes;
  CROWDTOPK_RETURN_IF_ERROR(util::ReadFileToString(path, &bytes));
  Decoder dec(bytes);
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t crc = 0;
  if (!dec.GetU64(&magic) || !dec.GetU32(&version) ||
      !dec.GetU64(fingerprint) || !dec.GetU32(&crc) || dec.remaining() != 0 ||
      magic != kManifestMagic ||
      util::Crc32(bytes.data(), bytes.size() - sizeof(uint32_t)) != crc) {
    return util::Status::InvalidArgument("manifest unreadable: " + path);
  }
  if (version != kFormatVersion) {
    return util::Status::FailedPrecondition(
        "persist dir " + dir + " has format version " +
        std::to_string(version) + "; finish its run with the build that "
        "wrote it, or delete the directory");
  }
  return util::Status::Ok();
}

util::Status LoadLatestSnapshot(const std::string& dir, SnapshotData* out,
                                int64_t* skipped) {
  if (skipped != nullptr) *skipped = 0;
  for (const int64_t barrier : SnapshotBarriers(dir)) {
    const std::string path = dir + "/" + SnapshotName(barrier);
    SnapshotData data;
    if (ReadSnapshot(path, &data).ok()) {
      *out = std::move(data);
      return util::Status::Ok();
    }
    if (skipped != nullptr) ++*skipped;
  }
  return util::Status::NotFound("no readable snapshot in " + dir);
}

util::StatusOr<RecoveredState> Recover(const std::string& dir,
                                       uint64_t config_fingerprint) {
  RecoveredState state;

  uint64_t manifest_fingerprint = 0;
  const util::Status manifest_status =
      ReadManifest(dir, &manifest_fingerprint);
  if (manifest_status.code() == util::StatusCode::kFailedPrecondition) {
    // Another format version: refused before anything is repaired or
    // deleted, since its segment headers would read as torn.
    return manifest_status;
  }
  if (manifest_status.ok()) {
    state.manifest_found = true;
    if (manifest_fingerprint != config_fingerprint) {
      return util::Status::FailedPrecondition(
          "persist dir " + dir +
          " was written under a different configuration; refusing to resume "
          "(delete the directory or match the original knobs)");
    }
  } else if (manifest_status.code() != util::StatusCode::kNotFound) {
    // Unreadable manifest: treat like any other corruption — fall back to
    // whatever the snapshots/WAL still prove, but say so.
    state.wal_detail = manifest_status.message();
  }

  const util::Status snapshot_status =
      LoadLatestSnapshot(dir, &state.snapshot, &state.snapshots_skipped);
  if (snapshot_status.ok()) {
    if (state.snapshot.config_fingerprint != config_fingerprint) {
      return util::Status::FailedPrecondition(
          "snapshot in " + dir +
          " was written under a different configuration; refusing to resume");
    }
    state.has_snapshot = true;
    state.durable_barrier = state.snapshot.barrier.barrier;
  }

  // Replay the WAL from the snapshot's clean segment (or the oldest
  // segment present when no snapshot survived).
  int64_t from_segment =
      state.has_snapshot ? state.snapshot.next_wal_segment : 0;
  if (!state.has_snapshot) {
    const int64_t min_seq = MinWalSegment(dir);
    if (min_seq > 0) from_segment = min_seq;
  }
  auto read = ReadWal(dir, from_segment);
  if (!read.ok()) return read.status();
  const WalReadResult& wal = *read;
  state.wal_records = static_cast<int64_t>(wal.records.size());
  state.wal_truncated = wal.truncated;
  state.wal_records_dropped = wal.records_dropped;
  state.wal_bytes_dropped = wal.bytes_dropped;
  if (!wal.detail.empty()) state.wal_detail = wal.detail;

  for (const WalRecord& record : wal.records) {
    state.barriers[record.barrier.barrier] = record.barrier;
    state.durable_barrier =
        std::max(state.durable_barrier, record.barrier.barrier);
  }

  if (wal.truncated) {
    CROWDTOPK_RETURN_IF_ERROR(RepairWal(dir, from_segment));
  }
  // Live appends always open a fresh segment; a repaired tail segment is
  // never extended.
  state.next_wal_segment = std::max(MaxWalSegment(dir) + 1, from_segment);
  return state;
}

}  // namespace crowdtopk::persist
