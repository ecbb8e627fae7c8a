#include "persist/format.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace crowdtopk::persist {

std::string EncodeAdmit(int64_t query_id) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(RecordType::kAdmit));
  enc.PutI64(query_id);
  return enc.Take();
}

std::string EncodeReject(int64_t query_id) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(RecordType::kReject));
  enc.PutI64(query_id);
  return enc.Take();
}

std::string EncodeComplete(const CompleteRecord& record) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(RecordType::kComplete));
  enc.PutI64(record.query_id);
  enc.PutU32(record.status_code);
  enc.PutI64(record.total_microtasks);
  enc.PutI64(record.rounds_private);
  enc.PutDouble(record.precision_at_k);
  enc.PutU32(static_cast<uint32_t>(record.items.size()));
  for (const int32_t item : record.items) enc.PutI32(item);
  return enc.Take();
}

void EncodeCacheEntry(const cache::ExportedEntry& entry, Encoder* enc) {
  enc->PutI64(entry.universe);
  enc->PutI32(entry.kind);
  enc->PutI32(entry.lo);
  enc->PutI32(entry.hi);
  enc->PutI32(static_cast<int32_t>(entry.entry.outcome));
  enc->PutU8(entry.entry.decisive ? 1 : 0);
  enc->PutDouble(entry.entry.alpha);
  enc->PutI64(entry.entry.count);
  enc->PutDouble(entry.entry.mean);
  enc->PutDouble(entry.entry.m2);
  enc->PutI64(entry.entry.first_stage_count);
  enc->PutDouble(entry.entry.first_stage_sd);
}

bool DecodeCacheEntry(Decoder* dec, cache::ExportedEntry* out) {
  int32_t outcome = 0;
  uint8_t decisive = 0;
  if (!dec->GetI64(&out->universe) || !dec->GetI32(&out->kind) ||
      !dec->GetI32(&out->lo) || !dec->GetI32(&out->hi) ||
      !dec->GetI32(&outcome) || !dec->GetU8(&decisive) ||
      !dec->GetDouble(&out->entry.alpha) || !dec->GetI64(&out->entry.count) ||
      !dec->GetDouble(&out->entry.mean) || !dec->GetDouble(&out->entry.m2) ||
      !dec->GetI64(&out->entry.first_stage_count) ||
      !dec->GetDouble(&out->entry.first_stage_sd)) {
    return false;
  }
  if (outcome < 0 || outcome > 2) return false;
  out->entry.outcome = static_cast<crowd::ComparisonOutcome>(outcome);
  out->entry.decisive = decisive != 0;
  // Refuse what no cache could have written. A restored entry would reach
  // RestoreEntries' canonical-pair CHECK, the alpha gate, and through a
  // lookup SeedFromCache's count CHECK. Each condition fails on a NaN.
  const cache::CachedComparison& e = out->entry;
  return out->lo >= 0 && out->lo < out->hi && e.count >= 1 &&
         e.alpha > 0.0 && e.alpha <= 1.0 && std::isfinite(e.mean) &&
         std::isfinite(e.m2) && e.m2 >= 0.0;
}

std::string EncodeCacheInsert(const cache::ExportedEntry& entry) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(RecordType::kCacheInsert));
  EncodeCacheEntry(entry, &enc);
  return enc.Take();
}

void EncodeBarrierFields(const BarrierRecord& record, Encoder* enc) {
  enc->PutI64(record.barrier);
  enc->PutI64(record.round);
  enc->PutDouble(record.now_seconds);
  enc->PutI64(record.next_arrival);
  enc->PutI64(record.done);
  enc->PutU64(record.digest);
}

bool DecodeBarrierFields(Decoder* dec, BarrierRecord* out) {
  return dec->GetI64(&out->barrier) && dec->GetI64(&out->round) &&
         dec->GetDouble(&out->now_seconds) &&
         dec->GetI64(&out->next_arrival) && dec->GetI64(&out->done) &&
         dec->GetU64(&out->digest);
}

std::string EncodeBarrier(const BarrierRecord& record) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(RecordType::kBarrier));
  EncodeBarrierFields(record, &enc);
  return enc.Take();
}

bool DecodeRecord(const std::string& payload, WalRecord* out) {
  Decoder dec(payload);
  uint8_t type = 0;
  out->type = RecordType::kBarrier;
  return dec.GetU8(&type) &&
         type == static_cast<uint8_t>(RecordType::kBarrier) &&
         DecodeBarrierFields(&dec, &out->barrier) && dec.remaining() == 0;
}

std::string WalSegmentName(int64_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%08" PRId64 ".log", seq);
  return name;
}

std::string SnapshotName(int64_t barrier) {
  char name[64];
  std::snprintf(name, sizeof(name), "snapshot-%010" PRId64 ".snap", barrier);
  return name;
}

namespace {

bool ParseNumericName(const std::string& name, const std::string& prefix,
                      const std::string& suffix, int64_t* value) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  int64_t parsed = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    parsed = parsed * 10 + (name[i] - '0');
  }
  *value = parsed;
  return true;
}

}  // namespace

bool ParseWalSegmentName(const std::string& name, int64_t* seq) {
  return ParseNumericName(name, "wal-", ".log", seq);
}

bool ParseSnapshotName(const std::string& name, int64_t* barrier) {
  return ParseNumericName(name, "snapshot-", ".snap", barrier);
}

}  // namespace crowdtopk::persist
