#include "persist/snapshot.h"

#include <utility>

#include "util/crc32.h"
#include "util/file_io.h"

namespace crowdtopk::persist {

namespace {

// Snapshot file layout:
//   [u64 magic][u32 version][u32 flags][u32 payload_len][u32 crc32][payload]
constexpr size_t kSnapshotHeaderSize = 8 + 4 + 4 + 4 + 4;

std::string EncodePayload(const SnapshotData& data, uint64_t cache_digest) {
  Encoder enc;
  EncodeBarrierFields(data.barrier, &enc);
  enc.PutU64(data.config_fingerprint);
  enc.PutI64(data.next_wal_segment);
  enc.PutU32(static_cast<uint32_t>(data.cache_entries.size()));
  for (const cache::ExportedEntry& entry : data.cache_entries) {
    EncodeCacheEntry(entry, &enc);
  }
  enc.PutU64(cache_digest);
  return enc.Take();
}

bool DecodePayload(const std::string& payload, SnapshotData* out) {
  Decoder dec(payload);
  if (!DecodeBarrierFields(&dec, &out->barrier) ||
      !dec.GetU64(&out->config_fingerprint) ||
      !dec.GetI64(&out->next_wal_segment)) {
    return false;
  }

  uint32_t count = 0;
  if (!dec.GetU32(&count)) return false;
  // A count the remaining bytes cannot hold is corruption, not a huge
  // allocation.
  if (count > dec.remaining() / kCacheEntryBytes) return false;
  out->cache_entries.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!DecodeCacheEntry(&dec, &out->cache_entries[i])) return false;
  }
  return dec.GetU64(&out->cache_digest) && dec.remaining() == 0;
}

}  // namespace

uint64_t CacheImageDigest(const std::vector<cache::ExportedEntry>& entries) {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(entries.size()));
  for (const cache::ExportedEntry& entry : entries) {
    EncodeCacheEntry(entry, &enc);
  }
  return util::Fnv1a64(enc.buffer());
}

util::Status WriteSnapshot(const std::string& path, const SnapshotData& data,
                           int64_t* bytes_written) {
  const uint64_t cache_digest = CacheImageDigest(data.cache_entries);
  const std::string payload = EncodePayload(data, cache_digest);
  Encoder header;
  header.PutU64(kSnapshotMagic);
  header.PutU32(kSnapshotVersion);
  header.PutU32(data.complete ? kSnapshotFlagComplete : 0);
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(util::Crc32(payload));
  std::string bytes = header.Take();
  bytes.append(payload);
  if (bytes_written != nullptr) {
    *bytes_written = static_cast<int64_t>(bytes.size());
  }
  return util::WriteFileAtomic(path, bytes);
}

util::Status ReadSnapshot(const std::string& path, SnapshotData* out) {
  std::string bytes;
  CROWDTOPK_RETURN_IF_ERROR(util::ReadFileToString(path, &bytes));
  Decoder dec(bytes);
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t flags = 0;
  uint32_t payload_len = 0;
  uint32_t crc = 0;
  if (!dec.GetU64(&magic) || !dec.GetU32(&version) || !dec.GetU32(&flags) ||
      !dec.GetU32(&payload_len) || !dec.GetU32(&crc)) {
    return util::Status::InvalidArgument("snapshot truncated: " + path);
  }
  if (magic != kSnapshotMagic) {
    return util::Status::InvalidArgument("snapshot bad magic: " + path);
  }
  if (version != kSnapshotVersion) {
    return util::Status::InvalidArgument("snapshot unsupported version: " +
                                         path);
  }
  if (dec.remaining() != payload_len) {
    return util::Status::InvalidArgument("snapshot length mismatch: " + path);
  }
  const std::string payload = bytes.substr(kSnapshotHeaderSize);
  if (util::Crc32(payload) != crc) {
    return util::Status::InvalidArgument("snapshot checksum mismatch: " +
                                         path);
  }
  SnapshotData data;
  if (!DecodePayload(payload, &data)) {
    return util::Status::InvalidArgument("snapshot payload malformed: " +
                                         path);
  }
  if (CacheImageDigest(data.cache_entries) != data.cache_digest) {
    return util::Status::InvalidArgument("snapshot cache digest mismatch: " +
                                         path);
  }
  data.complete = (flags & kSnapshotFlagComplete) != 0;
  *out = std::move(data);
  return util::Status::Ok();
}

}  // namespace crowdtopk::persist
