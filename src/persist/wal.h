// Write-ahead log: segmented, CRC-framed, torn-tail tolerant.
//
// The serving layer appends one kBarrier record per quiescence barrier (the
// barrier's events are hashed into its digest, not stored) — a single
// write(2) and, with fsync enabled, a single fdatasync(2), so durability
// costs one I/O round-trip per global round. Segments rotate at a size
// threshold and immediately after every snapshot, which is what lets the
// snapshot prune all older segments wholesale.
//
// Reading replays every surviving record in order. The first record whose
// frame or CRC32 fails to verify marks the torn tail: everything before it
// is kept, everything after — including any intact later segments, whose
// ordering can no longer be trusted — is counted as dropped. Repair()
// truncates the log back to the last valid record so subsequent runs see a
// clean log; recovery reports what was dropped instead of crashing
// (docs/PERSISTENCE.md, "Recovery semantics").

#ifndef CROWDTOPK_PERSIST_WAL_H_
#define CROWDTOPK_PERSIST_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "persist/format.h"
#include "util/status.h"

namespace crowdtopk::persist {

struct WalWriterOptions {
  std::string dir;
  // Rotate to a new segment once the current one exceeds this many bytes.
  int64_t segment_bytes = int64_t{1} << 20;
  // fdatasync every batch before acknowledging it.
  bool fsync = true;
};

struct WalWriterCounters {
  int64_t records = 0;
  int64_t bytes = 0;
  int64_t segments = 0;  // segments this writer created
};

class WalWriter {
 public:
  // Appends start in segment `start_segment` (created lazily; never reuses
  // an existing file's tail — recovery always hands out a fresh index).
  WalWriter(const WalWriterOptions& options, int64_t start_segment);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one batch of record payloads as a unit (framed, CRC'd, single
  // write + optional fdatasync). Rotates beforehand when the current
  // segment is over the size threshold.
  util::Status AppendBatch(const std::vector<std::string>& payloads);

  // Starts a new segment; the next batch creates it. Called after every
  // snapshot so older segments become prunable.
  void Rotate();

  // Index of the segment the next append writes to.
  int64_t current_segment() const { return segment_; }

  // First segment index guaranteed to hold only records appended from now
  // on: the current index while it is still untouched, one past it once
  // the file exists. Snapshots store this as their next_wal_segment.
  int64_t next_clean_segment() const {
    return segment_ + (segment_created_ ? 1 : 0);
  }

  const WalWriterCounters& counters() const { return counters_; }

 private:
  util::Status EnsureSegmentOpen();

  WalWriterOptions options_;
  int64_t segment_;
  bool segment_created_ = false;
  int64_t segment_size_ = 0;
  WalWriterCounters counters_;
};

struct WalReadResult {
  std::vector<WalRecord> records;  // every record before the torn tail
  int64_t segments_read = 0;
  bool truncated = false;       // a frame failed to verify
  int64_t records_dropped = 0;  // intact records discarded past the tear
  int64_t bytes_dropped = 0;    // bytes discarded past the tear
  std::string detail;           // human-readable tear location
};

// Replays segments `from_segment`, `from_segment`+1, ... until the first
// missing index. Never fails on corruption — it truncates instead (see
// header comment); only I/O errors surface as non-Ok.
util::StatusOr<WalReadResult> ReadWal(const std::string& dir,
                                      int64_t from_segment);

// Largest segment index present in `dir`, or -1.
int64_t MaxWalSegment(const std::string& dir);

// Physically repairs the log after a torn read: rewrites the torn segment
// to its valid prefix (dropping it entirely when nothing valid remains)
// and deletes every later segment, so the next recovery sees a clean log.
util::Status RepairWal(const std::string& dir, int64_t from_segment);

// Framing helper shared with tests: [u32 len][u32 crc][payload].
void FrameRecord(const std::string& payload, std::string* out);

}  // namespace crowdtopk::persist

#endif  // CROWDTOPK_PERSIST_WAL_H_
