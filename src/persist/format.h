// On-disk format of the durable-state subsystem.
//
// Two artifact kinds live in CROWDTOPK_PERSIST_DIR (docs/PERSISTENCE.md):
//
//   wal-<seq>.log        write-ahead log segments. A fixed header
//                        (magic, version, segment index) followed by
//                        length-prefixed barrier records, each
//                        independently CRC32-protected:
//                            [u32 payload_len][u32 crc32][payload]
//                        A record whose length or checksum does not verify
//                        marks the torn tail: replay keeps everything
//                        before it and reports everything after it as
//                        dropped — never a crash, never silent corruption.
//
//   snapshot-<barrier>.snap
//                        barrier position + judgment-cache image at one
//                        quiescence barrier: header (magic, version,
//                        flags, payload length, CRC32) + payload. Written
//                        atomically (util::WriteFileAtomic), so a reader
//                        sees either a complete snapshot or none.
//
// All integers are little-endian fixed width; doubles are stored as their
// IEEE-754 bit patterns, so a restored value is bit-exact — the same
// contract the judgment cache's Welford Restore path relies on.
//
// Payloads start with a RecordType byte. The event encodings (admit /
// reject / complete / cache-insert) describe what happened since the
// previous barrier; they are hashed into a running FNV-1a digest and never
// stored. The WAL holds only kBarrier records, which carry that digest —
// the value recovery verifies catch-up re-execution against.

#ifndef CROWDTOPK_PERSIST_FORMAT_H_
#define CROWDTOPK_PERSIST_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cache/judgment_cache.h"
#include "util/codec.h"

namespace crowdtopk::persist {

inline constexpr uint64_t kWalMagic = 0x31304c4157344b54ULL;   // "TK4WAL01"
inline constexpr uint64_t kSnapshotMagic = 0x50414e53344b54ULL;  // "TK4SNAP\0"
// Version of the manifest and the WAL segment headers. Version 1 logs also
// stored the event records; recovery refuses a version-1 directory.
inline constexpr uint32_t kFormatVersion = 2;
// Snapshot header version. A snapshot of any other version is refused
// like any unreadable snapshot, and recovery falls back past it.
inline constexpr uint32_t kSnapshotVersion = 2;

// Snapshot header flag: the run this snapshot closes finished cleanly.
inline constexpr uint32_t kSnapshotFlagComplete = 1u << 0;

enum class RecordType : uint8_t {
  kAdmit = 1,        // query admitted into an in-flight slot
  kReject = 2,       // query bounced at admission (queue overflow)
  kComplete = 3,     // query finished; durable outcome summary attached
  kCacheInsert = 4,  // one staged judgment-cache insert applied at a barrier
  kBarrier = 5,      // seals a barrier; carries the chained state digest
};

// Outcome summary of a finished query. Its encoding feeds the barrier
// digest, so catch-up checks every re-derived answer against it; timing
// fields re-derive deterministically from replay and are not hashed.
struct CompleteRecord {
  int64_t query_id = 0;
  uint32_t status_code = 0;  // util::StatusCode
  int64_t total_microtasks = 0;
  int64_t rounds_private = 0;
  double precision_at_k = 0.0;
  std::vector<int32_t> items;
};

// Seals one quiescence barrier.
struct BarrierRecord {
  int64_t barrier = 0;       // 0-based barrier sequence number
  int64_t round = 0;         // scheduler's global round counter
  double now_seconds = 0.0;  // simulated clock (bit-exact)
  int64_t next_arrival = 0;  // arrivals consumed from the trace
  int64_t done = 0;          // queries finished or rejected
  uint64_t digest = 0;       // chained FNV-1a over all event payloads
};

// One decoded WAL record; `type` says which member is meaningful. Version 2
// logs hold only kBarrier records, so the event members are never filled.
struct WalRecord {
  RecordType type = RecordType::kBarrier;
  int64_t query_id = 0;               // kAdmit / kReject
  CompleteRecord complete;            // kComplete
  cache::ExportedEntry cache_insert;  // kCacheInsert
  BarrierRecord barrier;              // kBarrier
};

// ----- byte-level codec ---------------------------------------------------

// The codec lives in util/codec.h now (the network wire protocol shares
// it); these aliases keep the persist call sites and tests unchanged.
using Encoder = util::Encoder;
using Decoder = util::Decoder;

// ----- record payload codecs ---------------------------------------------

// Event encodings: the bytes the barrier digest hashes.
std::string EncodeAdmit(int64_t query_id);
std::string EncodeReject(int64_t query_id);
std::string EncodeComplete(const CompleteRecord& record);
std::string EncodeCacheInsert(const cache::ExportedEntry& entry);
// The one stored record.
std::string EncodeBarrier(const BarrierRecord& record);

// Decodes one WAL record payload (type byte included). False on malformed
// bytes and on any type but kBarrier.
bool DecodeRecord(const std::string& payload, WalRecord* out);

// Serialises / parses the six barrier fields (shared by WAL barrier
// records and snapshots).
void EncodeBarrierFields(const BarrierRecord& record, Encoder* enc);
bool DecodeBarrierFields(Decoder* dec, BarrierRecord* out);

// Serialises / parses a cache entry body (shared by the cache-insert event
// encoding and the snapshot's cache image). The body has a fixed size:
// universe, kind, lo, hi, outcome, decisive, alpha, count, mean, m2,
// first-stage count and sd. Decoding refuses an entry that no cache could
// have written: it needs 0 <= lo < hi, count >= 1, alpha in (0, 1], and a
// finite mean and m2 with m2 >= 0.
inline constexpr size_t kCacheEntryBytes = 8 + 4 * 4 + 1 + 8 * 6;
void EncodeCacheEntry(const cache::ExportedEntry& entry, Encoder* enc);
bool DecodeCacheEntry(Decoder* dec, cache::ExportedEntry* out);

// File names inside the persist directory.
std::string WalSegmentName(int64_t seq);
std::string SnapshotName(int64_t barrier);
// Parses the numeric id out of a wal-/snapshot- name; false when `name` is
// not one of ours.
bool ParseWalSegmentName(const std::string& name, int64_t* seq);
bool ParseSnapshotName(const std::string& name, int64_t* barrier);

}  // namespace crowdtopk::persist

#endif  // CROWDTOPK_PERSIST_FORMAT_H_
