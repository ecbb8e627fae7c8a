// Recovery: turn the bytes in a persist directory back into trusted state.
//
// Recover() loads the newest readable snapshot (falling back over corrupt
// ones), replays every WAL segment at or after the snapshot's
// next_wal_segment with torn-tail truncation, physically repairs a torn
// log, and reports the durable frontier: the last barrier whose record
// survived intact. The serving layer then re-executes its deterministic
// replay from time zero, verifying each re-derived barrier digest against
// the recovered records up to that frontier ("verified deterministic
// catch-up", docs/PERSISTENCE.md) and appending fresh WAL records past it.
//
// The manifest pins the configuration fingerprint for the directory's
// lifetime; resuming under a different configuration is refused rather
// than silently diverging.

#ifndef CROWDTOPK_PERSIST_RECOVERY_H_
#define CROWDTOPK_PERSIST_RECOVERY_H_

#include <cstdint>
#include <map>
#include <string>

#include "persist/snapshot.h"
#include "persist/wal.h"
#include "util/status.h"

namespace crowdtopk::persist {

// manifest.bin: written once when a persist directory is (re)initialised.
util::Status WriteManifest(const std::string& dir, uint64_t fingerprint);
// NotFound when no manifest exists; InvalidArgument when unreadable;
// FailedPrecondition when written under another kFormatVersion.
util::Status ReadManifest(const std::string& dir, uint64_t* fingerprint);

// Newest snapshot that parses and checksums clean; NotFound when none.
// `skipped` (optional) counts corrupt snapshots fallen past.
util::Status LoadLatestSnapshot(const std::string& dir, SnapshotData* out,
                                int64_t* skipped = nullptr);

struct RecoveredState {
  bool manifest_found = false;
  bool has_snapshot = false;
  SnapshotData snapshot;  // meaningful iff has_snapshot
  int64_t snapshots_skipped = 0;

  // Barrier records recovered from the WAL, past the snapshot barrier.
  std::map<int64_t, BarrierRecord> barriers;
  // Last barrier whose record is durable: max(snapshot barrier, last WAL
  // barrier). -1 when the directory holds nothing usable.
  int64_t durable_barrier = -1;
  // Fresh segment index live appends continue in (never a used file).
  int64_t next_wal_segment = 0;

  int64_t wal_records = 0;  // barrier records replayed
  bool wal_truncated = false;
  int64_t wal_records_dropped = 0;
  int64_t wal_bytes_dropped = 0;
  std::string wal_detail;
};

// FailedPrecondition, before anything on disk is touched, when the
// manifest carries another format version; FailedPrecondition when the
// manifest or snapshot carries a different configuration fingerprint;
// otherwise degrades gracefully — corruption lowers the durable frontier,
// it never fails the call.
util::StatusOr<RecoveredState> Recover(const std::string& dir,
                                       uint64_t config_fingerprint);

}  // namespace crowdtopk::persist

#endif  // CROWDTOPK_PERSIST_RECOVERY_H_
