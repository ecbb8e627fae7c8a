#include "persist/wal.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "util/crc32.h"
#include "util/file_io.h"

namespace crowdtopk::persist {

namespace {

// Segment header: magic + version + segment index.
constexpr size_t kSegmentHeaderSize = 8 + 4 + 8;
// Framed records cap payloads far above anything the encoders emit; a
// larger length field is treated as corruption rather than allocated.
constexpr uint32_t kMaxRecordPayload = 64u << 20;

std::string SegmentPath(const std::string& dir, int64_t seq) {
  return dir + "/" + WalSegmentName(seq);
}

std::string EncodeSegmentHeader(int64_t seq) {
  Encoder enc;
  enc.PutU64(kWalMagic);
  enc.PutU32(kFormatVersion);
  enc.PutI64(seq);
  return enc.Take();
}

bool DecodeSegmentHeader(Decoder* dec, int64_t expected_seq) {
  uint64_t magic = 0;
  uint32_t version = 0;
  int64_t seq = 0;
  if (!dec->GetU64(&magic) || !dec->GetU32(&version) || !dec->GetI64(&seq)) {
    return false;
  }
  return magic == kWalMagic && version == kFormatVersion &&
         seq == expected_seq;
}

}  // namespace

void FrameRecord(const std::string& payload, std::string* out) {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutU32(util::Crc32(payload));
  out->append(enc.buffer());
  out->append(payload);
}

WalWriter::WalWriter(const WalWriterOptions& options, int64_t start_segment)
    : options_(options), segment_(start_segment) {}

util::Status WalWriter::EnsureSegmentOpen() {
  if (segment_created_) return util::Status::Ok();
  const std::string header = EncodeSegmentHeader(segment_);
  CROWDTOPK_RETURN_IF_ERROR(util::AppendToFile(
      SegmentPath(options_.dir, segment_), header, options_.fsync));
  segment_created_ = true;
  segment_size_ = static_cast<int64_t>(header.size());
  ++counters_.segments;
  return util::Status::Ok();
}

util::Status WalWriter::AppendBatch(const std::vector<std::string>& payloads) {
  if (payloads.empty()) return util::Status::Ok();
  if (segment_created_ && segment_size_ >= options_.segment_bytes) Rotate();
  CROWDTOPK_RETURN_IF_ERROR(EnsureSegmentOpen());
  std::string batch;
  for (const std::string& payload : payloads) FrameRecord(payload, &batch);
  CROWDTOPK_RETURN_IF_ERROR(util::AppendToFile(
      SegmentPath(options_.dir, segment_), batch, options_.fsync));
  segment_size_ += static_cast<int64_t>(batch.size());
  counters_.records += static_cast<int64_t>(payloads.size());
  counters_.bytes += static_cast<int64_t>(batch.size());
  return util::Status::Ok();
}

void WalWriter::Rotate() {
  if (!segment_created_) return;  // current segment is still untouched
  ++segment_;
  segment_created_ = false;
  segment_size_ = 0;
}

namespace {

// Parses one segment's bytes. Returns false when the segment has a torn
// or corrupt region; `*bad_offset` then marks where the valid prefix ends.
bool ParseSegment(const std::string& bytes, int64_t seq,
                  std::vector<WalRecord>* records, size_t* bad_offset) {
  Decoder dec(bytes);
  if (!DecodeSegmentHeader(&dec, seq)) {
    *bad_offset = 0;
    return false;
  }
  size_t good = kSegmentHeaderSize;
  while (dec.remaining() > 0) {
    uint32_t len = 0;
    uint32_t crc = 0;
    std::string payload;
    WalRecord record;
    if (!dec.GetU32(&len) || !dec.GetU32(&crc) || len > kMaxRecordPayload ||
        !dec.GetRaw(len, &payload) || util::Crc32(payload) != crc ||
        !DecodeRecord(payload, &record)) {
      *bad_offset = good;
      return false;
    }
    records->push_back(std::move(record));
    good = bytes.size() - dec.remaining();
  }
  *bad_offset = bytes.size();
  return true;
}

}  // namespace

int64_t MaxWalSegment(const std::string& dir) {
  std::vector<std::string> names;
  if (!util::ListDirectoryFiles(dir, &names).ok()) return -1;
  int64_t max_seq = -1;
  for (const std::string& name : names) {
    int64_t seq = 0;
    if (ParseWalSegmentName(name, &seq) && seq > max_seq) max_seq = seq;
  }
  return max_seq;
}

util::StatusOr<WalReadResult> ReadWal(const std::string& dir,
                                      int64_t from_segment) {
  WalReadResult result;
  const int64_t max_seq = MaxWalSegment(dir);
  for (int64_t seq = from_segment; seq <= max_seq; ++seq) {
    const std::string path = SegmentPath(dir, seq);
    if (util::FileSize(path) < 0) break;  // gap: stop at the last contiguous
    std::string bytes;
    CROWDTOPK_RETURN_IF_ERROR(util::ReadFileToString(path, &bytes));
    std::vector<WalRecord> records;
    size_t bad_offset = bytes.size();
    const bool clean = ParseSegment(bytes, seq, &records, &bad_offset);
    if (!result.truncated) {
      ++result.segments_read;
      result.records.insert(result.records.end(),
                            std::make_move_iterator(records.begin()),
                            std::make_move_iterator(records.end()));
      if (!clean) {
        result.truncated = true;
        result.bytes_dropped +=
            static_cast<int64_t>(bytes.size() - bad_offset);
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "torn tail in %s at offset %zu (%zu bytes)",
                      WalSegmentName(seq).c_str(), bad_offset, bytes.size());
        result.detail = buf;
      }
    } else {
      // Everything past the tear is dropped wholesale; intact records here
      // are counted so the operator can see what the tear cost.
      result.records_dropped += static_cast<int64_t>(records.size());
      result.bytes_dropped += static_cast<int64_t>(bytes.size());
    }
  }
  return result;
}

util::Status RepairWal(const std::string& dir, int64_t from_segment) {
  const int64_t max_seq = MaxWalSegment(dir);
  bool torn = false;
  for (int64_t seq = from_segment; seq <= max_seq; ++seq) {
    const std::string path = SegmentPath(dir, seq);
    if (util::FileSize(path) < 0) break;
    if (torn) {
      CROWDTOPK_RETURN_IF_ERROR(util::RemoveFileIfExists(path));
      continue;
    }
    std::string bytes;
    CROWDTOPK_RETURN_IF_ERROR(util::ReadFileToString(path, &bytes));
    std::vector<WalRecord> records;
    size_t bad_offset = bytes.size();
    if (ParseSegment(bytes, seq, &records, &bad_offset)) continue;
    torn = true;
    if (bad_offset <= kSegmentHeaderSize) {
      // Nothing valid survived (even the header may be bad): drop the file.
      CROWDTOPK_RETURN_IF_ERROR(util::RemoveFileIfExists(path));
    } else {
      CROWDTOPK_RETURN_IF_ERROR(
          util::WriteFileAtomic(path, bytes.substr(0, bad_offset)));
    }
  }
  return util::Status::Ok();
}

}  // namespace crowdtopk::persist
