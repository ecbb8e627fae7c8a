// Tests for the durable-state subsystem (src/persist): record codec
// round-trips, WAL framing / rotation / torn-tail truncation / repair,
// snapshot atomicity and corruption fallback, manifest fingerprint
// pinning, and the end-to-end contract — a serving replay halted
// mid-run and resumed from disk produces byte-identical reports for any
// worker count, even after the WAL tail is corrupted.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "baselines/heap_sort.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "judgment/comparison.h"
#include "persist/format.h"
#include "persist/manager.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "serve/arrival.h"
#include "serve/query_service.h"
#include "serve/report.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/status.h"

namespace crowdtopk::persist {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  // Clear leftovers from a previous test-process run.
  std::vector<std::string> files;
  if (util::ListDirectoryFiles(dir, &files).ok()) {
    for (const std::string& f : files) {
      EXPECT_TRUE(util::RemoveFileIfExists(dir + "/" + f).ok());
    }
  }
  EXPECT_TRUE(util::EnsureDirectory(dir).ok());
  return dir;
}

cache::ExportedEntry SampleEntry() {
  cache::ExportedEntry entry;
  entry.universe = 3;
  entry.kind = 1;
  entry.lo = 4;
  entry.hi = 9;
  entry.entry.outcome = crowd::ComparisonOutcome::kLeftWins;
  entry.entry.decisive = true;
  entry.entry.alpha = 0.05;
  entry.entry.count = 37;
  entry.entry.mean = 0.123456789012345;
  entry.entry.m2 = 9.87654321e-3;
  entry.entry.first_stage_count = 12;
  entry.entry.first_stage_sd = 0.25;
  return entry;
}

// ------------------------------------------------------------- format

BarrierRecord SampleBarrier() {
  BarrierRecord barrier;
  barrier.barrier = 41;
  barrier.round = 99;
  barrier.now_seconds = 123.456;
  barrier.next_arrival = 7;
  barrier.done = 6;
  barrier.digest = 0xdeadbeefcafef00dULL;
  return barrier;
}

TEST(FormatTest, RecordCodecRoundTrips) {
  WalRecord out;
  // Event encodings feed the digest only; the WAL never stores them, so
  // the decoder refuses each one.
  CompleteRecord complete;
  complete.query_id = 8;
  complete.total_microtasks = 4242;
  complete.items = {3, 1, 4};
  EXPECT_FALSE(DecodeRecord(EncodeAdmit(17), &out));
  EXPECT_FALSE(DecodeRecord(EncodeReject(5), &out));
  EXPECT_FALSE(DecodeRecord(EncodeComplete(complete), &out));
  EXPECT_FALSE(DecodeRecord(EncodeCacheInsert(SampleEntry()), &out));
  // The digest hashes these bytes, so their size is pinned.
  EXPECT_EQ(EncodeCacheInsert(SampleEntry()).size(), 1 + kCacheEntryBytes);

  const BarrierRecord barrier = SampleBarrier();
  ASSERT_TRUE(DecodeRecord(EncodeBarrier(barrier), &out));
  EXPECT_EQ(out.type, RecordType::kBarrier);
  EXPECT_EQ(out.barrier.barrier, 41);
  EXPECT_EQ(out.barrier.round, 99);
  EXPECT_EQ(out.barrier.now_seconds, 123.456);
  EXPECT_EQ(out.barrier.next_arrival, 7);
  EXPECT_EQ(out.barrier.done, 6);
  EXPECT_EQ(out.barrier.digest, 0xdeadbeefcafef00dULL);
}

TEST(FormatTest, DecodeRejectsMalformedPayloads) {
  WalRecord out;
  EXPECT_FALSE(DecodeRecord("", &out));
  EXPECT_FALSE(DecodeRecord("\x07", &out));  // unknown type byte
  // Trailing garbage after a well-formed record is corruption too.
  const std::string barrier = EncodeBarrier(SampleBarrier());
  EXPECT_FALSE(DecodeRecord(barrier + "x", &out));
  // Truncated body.
  EXPECT_FALSE(DecodeRecord(barrier.substr(0, barrier.size() - 1), &out));
  // A complete record, whatever item count it claims, is refused by type
  // before anything is allocated for it.
  for (const uint32_t count : {2u, 0xFFFFFFFFu}) {
    Encoder enc;
    enc.PutU8(static_cast<uint8_t>(RecordType::kComplete));
    enc.PutI64(1);       // query_id
    enc.PutU32(0);       // status_code
    enc.PutI64(100);     // total_microtasks
    enc.PutI64(3);       // rounds_private
    enc.PutDouble(1.0);  // precision_at_k
    enc.PutU32(count);
    enc.PutI32(7);       // room for one item only
    EXPECT_FALSE(DecodeRecord(enc.Take(), &out)) << count;
  }
}

TEST(FormatTest, FileNamesRoundTrip) {
  int64_t id = -1;
  EXPECT_TRUE(ParseWalSegmentName(WalSegmentName(42), &id));
  EXPECT_EQ(id, 42);
  EXPECT_TRUE(ParseSnapshotName(SnapshotName(1234), &id));
  EXPECT_EQ(id, 1234);
  EXPECT_FALSE(ParseWalSegmentName("snapshot-0000000001.snap", &id));
  EXPECT_FALSE(ParseSnapshotName("wal-00000001.log", &id));
  EXPECT_FALSE(ParseWalSegmentName("wal-abc.log", &id));
}

// ---------------------------------------------------------------- wal

// One WAL batch: the barrier records `first` and `first` + 1.
std::vector<std::string> BarrierPair(int64_t first) {
  BarrierRecord a;
  a.barrier = first;
  BarrierRecord b;
  b.barrier = first + 1;
  return {EncodeBarrier(a), EncodeBarrier(b)};
}

TEST(WalTest, AppendReadRoundTripAcrossRotation) {
  const std::string dir = FreshDir("wal_round_trip");
  WalWriterOptions options;
  options.dir = dir;
  options.segment_bytes = 128;  // force rotation every couple of batches
  options.fsync = false;
  WalWriter writer(options, /*start_segment=*/0);

  for (int64_t b = 0; b < 20; b += 2) {
    ASSERT_TRUE(writer.AppendBatch(BarrierPair(b)).ok());
  }
  EXPECT_GT(writer.counters().segments, 1);

  const auto read = ReadWal(dir, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->truncated);
  ASSERT_EQ(read->records.size(), 20u);
  int64_t barriers_seen = 0;
  for (const WalRecord& record : read->records) {
    EXPECT_EQ(record.type, RecordType::kBarrier);
    EXPECT_EQ(record.barrier.barrier, barriers_seen++);
  }
}

TEST(WalTest, TornTailKeepsPrefixAndDropsBeyond) {
  const std::string dir = FreshDir("wal_torn_tail");
  WalWriterOptions options;
  options.dir = dir;
  options.segment_bytes = 64;  // several segments
  options.fsync = false;
  WalWriter writer(options, 0);
  for (int64_t b = 0; b < 16; b += 2) {
    ASSERT_TRUE(writer.AppendBatch(BarrierPair(b)).ok());
  }
  ASSERT_GT(MaxWalSegment(dir), 0);

  // Flip one byte in the middle of segment 1: everything in segment 1 from
  // the damaged record on, plus every later segment, must be dropped.
  const std::string victim = dir + "/" + WalSegmentName(1);
  std::string bytes;
  ASSERT_TRUE(util::ReadFileToString(victim, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(util::WriteFileAtomic(victim, bytes).ok());

  const auto read = ReadWal(dir, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->truncated);
  EXPECT_GT(read->bytes_dropped, 0);
  EXPECT_FALSE(read->records.empty());
  // Every surviving barrier is a strict prefix 0,1,...
  int64_t next = 0;
  for (const WalRecord& record : read->records) {
    EXPECT_EQ(record.barrier.barrier, next++);
  }
  EXPECT_LT(next, 16);

  // Repair truncates the torn segment and deletes later ones; the next
  // read is clean and sees exactly the surviving prefix.
  ASSERT_TRUE(RepairWal(dir, 0).ok());
  const auto repaired = ReadWal(dir, 0);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->truncated);
  EXPECT_EQ(repaired->records.size(), read->records.size());
}

TEST(WalTest, MissingSegmentStopsReplay) {
  const std::string dir = FreshDir("wal_gap");
  WalWriterOptions options;
  options.dir = dir;
  options.fsync = false;
  WalWriter writer(options, 0);
  BarrierRecord barrier;
  ASSERT_TRUE(writer.AppendBatch({EncodeBarrier(barrier)}).ok());
  // Reading from an index past every existing segment replays nothing.
  const auto read = ReadWal(dir, 5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 0u);
  EXPECT_EQ(read->segments_read, 0);
}

// ----------------------------------------------------------- snapshot

SnapshotData SampleSnapshot() {
  SnapshotData data;
  data.barrier.barrier = 12;
  data.barrier.round = 40;
  data.barrier.now_seconds = 321.0625;
  data.barrier.digest = 0x1234567890abcdefULL;
  data.config_fingerprint = 777;
  data.next_wal_segment = 3;
  data.cache_entries = {SampleEntry()};
  return data;
}

// A snapshot file around `payload` whose header carries `version` and a
// valid CRC, so only the version and payload checks can refuse it.
std::string SnapshotFile(uint32_t version, const std::string& payload) {
  Encoder enc;
  enc.PutU64(kSnapshotMagic);
  enc.PutU32(version);
  enc.PutU32(0);  // flags
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutU32(util::Crc32(payload));
  return enc.Take() + payload;
}

TEST(SnapshotTest, WriteReadRoundTripIsBitExact) {
  const std::string dir = FreshDir("snapshot_round_trip");
  const std::string path = dir + "/" + SnapshotName(12);
  const SnapshotData data = SampleSnapshot();
  int64_t bytes = 0;
  ASSERT_TRUE(WriteSnapshot(path, data, &bytes).ok());
  EXPECT_GT(bytes, 0);

  SnapshotData loaded;
  ASSERT_TRUE(ReadSnapshot(path, &loaded).ok());
  EXPECT_EQ(loaded.barrier.barrier, 12);
  EXPECT_EQ(loaded.barrier.now_seconds, data.barrier.now_seconds);
  EXPECT_EQ(loaded.barrier.digest, data.barrier.digest);
  EXPECT_EQ(loaded.config_fingerprint, 777u);
  EXPECT_EQ(loaded.next_wal_segment, 3);
  ASSERT_EQ(loaded.cache_entries.size(), 1u);
  EXPECT_EQ(loaded.cache_entries[0].entry.mean, SampleEntry().entry.mean);
  EXPECT_EQ(loaded.cache_digest, CacheImageDigest(data.cache_entries));
}

TEST(SnapshotTest, CorruptSnapshotIsRejected) {
  const std::string dir = FreshDir("snapshot_corrupt");
  const std::string path = dir + "/" + SnapshotName(1);
  ASSERT_TRUE(WriteSnapshot(path, SampleSnapshot(), nullptr).ok());
  std::string bytes;
  ASSERT_TRUE(util::ReadFileToString(path, &bytes).ok());
  const std::string payload = bytes.substr(24);  // past the header
  ASSERT_EQ(SnapshotFile(kSnapshotVersion, payload), bytes);
  bytes[bytes.size() - 3] ^= 0x01;
  ASSERT_TRUE(util::WriteFileAtomic(path, bytes).ok());
  SnapshotData loaded;
  EXPECT_FALSE(ReadSnapshot(path, &loaded).ok());

  // An earlier snapshot version is refused even with a valid CRC.
  ASSERT_TRUE(util::WriteFileAtomic(path, SnapshotFile(1, payload)).ok());
  EXPECT_EQ(ReadSnapshot(path, &loaded).code(),
            util::StatusCode::kInvalidArgument);

  // A CRC-valid payload whose cache-entry count the remaining bytes cannot
  // hold is refused before anything is allocated for it.
  for (const uint32_t count : {2u, 0xFFFFFFFFu}) {
    Encoder enc;
    // Barrier record (six fields), config fingerprint, next WAL segment.
    for (int field = 0; field < 8; ++field) enc.PutU64(0);
    enc.PutU32(count);
    EncodeCacheEntry(SampleEntry(), &enc);  // room for one entry only
    enc.PutU64(0);                          // cache digest
    ASSERT_TRUE(
        util::WriteFileAtomic(path, SnapshotFile(kSnapshotVersion, enc.Take()))
            .ok());
    EXPECT_EQ(ReadSnapshot(path, &loaded).code(),
              util::StatusCode::kInvalidArgument)
        << count;
  }

  // CRC- and digest-valid images holding an entry no cache could have
  // written are refused: restoring one would crash the process.
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, void (*)(cache::ExportedEntry*)>>
      bad_entries = {
          {"lo > hi", [](cache::ExportedEntry* e) { std::swap(e->lo, e->hi); }},
          {"lo == hi", [](cache::ExportedEntry* e) { e->hi = e->lo; }},
          {"lo < 0", [](cache::ExportedEntry* e) { e->lo = -1; }},
          {"count 0",
           [](cache::ExportedEntry* e) {
             e->entry.decisive = false;
             e->entry.count = 0;
           }},
          {"alpha 0", [](cache::ExportedEntry* e) { e->entry.alpha = 0.0; }},
          {"alpha > 1", [](cache::ExportedEntry* e) { e->entry.alpha = 1.5; }},
          {"alpha NaN", [](cache::ExportedEntry* e) { e->entry.alpha = nan; }},
          {"mean inf", [](cache::ExportedEntry* e) { e->entry.mean = inf; }},
          {"m2 NaN", [](cache::ExportedEntry* e) { e->entry.m2 = nan; }},
          {"m2 < 0", [](cache::ExportedEntry* e) { e->entry.m2 = -1.0; }},
      };
  for (const auto& [name, corrupt] : bad_entries) {
    SnapshotData data = SampleSnapshot();
    corrupt(&data.cache_entries[0]);
    ASSERT_TRUE(WriteSnapshot(path, data, nullptr).ok());
    EXPECT_EQ(ReadSnapshot(path, &loaded).code(),
              util::StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(SnapshotTest, LoadLatestFallsBackOverCorruptNewest) {
  const std::string dir = FreshDir("snapshot_fallback");
  SnapshotData older = SampleSnapshot();
  older.barrier.barrier = 5;
  ASSERT_TRUE(WriteSnapshot(dir + "/" + SnapshotName(5), older, nullptr).ok());
  SnapshotData newer = SampleSnapshot();
  newer.barrier.barrier = 9;
  const std::string newest = dir + "/" + SnapshotName(9);
  ASSERT_TRUE(WriteSnapshot(newest, newer, nullptr).ok());
  // Damage the newest image.
  std::string bytes;
  ASSERT_TRUE(util::ReadFileToString(newest, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0xff;
  ASSERT_TRUE(util::WriteFileAtomic(newest, bytes).ok());

  SnapshotData loaded;
  int64_t skipped = 0;
  ASSERT_TRUE(LoadLatestSnapshot(dir, &loaded, &skipped).ok());
  EXPECT_EQ(loaded.barrier.barrier, 5);
  EXPECT_EQ(skipped, 1);
}

// ----------------------------------------------------------- recovery

TEST(RecoveryTest, ManifestPinsConfigurationFingerprint) {
  const std::string dir = FreshDir("recovery_manifest");
  uint64_t fingerprint = 0;
  EXPECT_EQ(ReadManifest(dir, &fingerprint).code(),
            util::StatusCode::kNotFound);
  ASSERT_TRUE(WriteManifest(dir, 0xabcdULL).ok());
  ASSERT_TRUE(ReadManifest(dir, &fingerprint).ok());
  EXPECT_EQ(fingerprint, 0xabcdULL);

  // Matching fingerprint recovers (empty state); a different one refuses.
  EXPECT_TRUE(Recover(dir, 0xabcdULL).ok());
  const auto mismatch = Recover(dir, 0x9999ULL);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, RecoversFrontierFromWalAndSnapshot) {
  const std::string dir = FreshDir("recovery_frontier");
  ASSERT_TRUE(WriteManifest(dir, 1ULL).ok());

  WalWriterOptions options;
  options.dir = dir;
  options.fsync = false;
  WalWriter writer(options, 0);
  for (int64_t b = 0; b < 4; ++b) {
    BarrierRecord barrier;
    barrier.barrier = b;
    barrier.digest = 1000 + static_cast<uint64_t>(b);
    ASSERT_TRUE(writer.AppendBatch({EncodeBarrier(barrier)}).ok());
  }

  const auto recovered = Recover(dir, 1ULL);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->has_snapshot);
  EXPECT_EQ(recovered->durable_barrier, 3);
  EXPECT_EQ(recovered->barriers.size(), 4u);
  EXPECT_EQ(recovered->barriers.at(2).digest, 1002u);
  // Live appends must land in a fresh segment past everything on disk.
  EXPECT_GT(recovered->next_wal_segment, MaxWalSegment(dir));
}

// A version-1 directory (its WAL also stored event records) is refused
// before recovery repairs or deletes anything: its segment headers would
// otherwise read as a torn tail and be removed.
TEST(RecoveryTest, RefusesFormatVersion1DirectoryUntouched) {
  const std::string dir = FreshDir("recovery_v1");
  Encoder manifest;
  manifest.PutU64(0x46494e414d344b54ULL);  // "TK4MANIF"
  manifest.PutU32(1);
  manifest.PutU64(7);  // config fingerprint
  manifest.PutU32(util::Crc32(manifest.buffer()));
  Encoder header;
  header.PutU64(kWalMagic);
  header.PutU32(1);
  header.PutI64(0);  // segment index
  std::string segment = header.Take();
  FrameRecord(EncodeAdmit(0), &segment);
  FrameRecord(EncodeBarrier(BarrierRecord()), &segment);
  const std::string manifest_path = dir + "/manifest.bin";
  const std::string segment_path = dir + "/" + WalSegmentName(0);
  ASSERT_TRUE(util::WriteFileAtomic(manifest_path, manifest.buffer()).ok());
  ASSERT_TRUE(util::WriteFileAtomic(segment_path, segment).ok());

  const auto recovered = Recover(dir, 7);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(recovered.status().message().find("format version 1"),
            std::string::npos)
      << recovered.status().message();
  std::string bytes;
  ASSERT_TRUE(util::ReadFileToString(manifest_path, &bytes).ok());
  EXPECT_EQ(bytes, manifest.buffer());
  ASSERT_TRUE(util::ReadFileToString(segment_path, &bytes).ok());
  EXPECT_EQ(bytes, segment);
  std::vector<std::string> files;
  ASSERT_TRUE(util::ListDirectoryFiles(dir, &files).ok());
  EXPECT_EQ(files.size(), 2u);
}

// ------------------------------------------------------------ manager

// Where a manager snapshots while its cache grows 0, 0, 1, 2, ..., 100
// pairs over barriers 0..101: the barriers of its periodic snapshots and
// the pairs of every image it wrote, the final one last.
struct Cadence {
  std::vector<int64_t> barriers;
  std::vector<int64_t> image_pairs;
  PersistCounters counters;
};

Cadence DriveGrowingCache(const PersistOptions& options) {
  PersistenceManager manager(options, /*config_fingerprint=*/7);
  EXPECT_TRUE(manager.Open().ok());
  int64_t pairs = 0;
  const PersistenceManager::CacheImageSource source = [&pairs] {
    std::vector<cache::ExportedEntry> image(pairs, SampleEntry());
    for (int64_t i = 0; i < pairs; ++i) {
      image[i].lo = static_cast<crowd::ItemId>(2 * i);
      image[i].hi = static_cast<crowd::ItemId>(2 * i + 1);
    }
    return image;
  };
  Cadence cadence;
  for (int64_t b = 0; b <= 101; ++b) {
    pairs = std::max<int64_t>(0, b - 1);
    const int64_t before = manager.counters().snapshots;
    EXPECT_TRUE(manager
                    .OnBarrier(/*round=*/b, static_cast<double>(b),
                               /*next_arrival=*/0, /*done=*/0, pairs, source)
                    .ok());
    if (manager.counters().snapshots > before) {
      cadence.barriers.push_back(b);
      cadence.image_pairs.push_back(pairs);
    }
  }
  const int64_t before = manager.counters().snapshots;
  EXPECT_TRUE(manager.Finalize(source).ok());
  if (manager.counters().snapshots > before) {
    cadence.image_pairs.push_back(pairs);
  }
  cadence.counters = manager.counters();
  return cadence;
}

// A periodic snapshot needs both snapshot_every barriers since the last
// one and, once the generation has one, a cache at least twice that
// image's size. However small snapshot_every is, the images one run
// writes then add up to at most three final images.
TEST(ManagerTest, PeriodicSnapshotsWaitForTheCacheToDouble) {
  const struct {
    int64_t every;
    std::vector<int64_t> barriers;
  } cases[] = {
      // Images of 0, 1, 2, 4, 8, 16, 32 and 64 pairs, then the final 100.
      {1, {0, 2, 3, 5, 9, 17, 33, 65}},
      // Images of 2, 6, 12, 24, 48 and 96 pairs, then the final 100.
      {4, {3, 7, 13, 25, 49, 97}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.every);
    PersistOptions options;
    options.dir = FreshDir("manager_cadence_every" + std::to_string(c.every));
    options.snapshot_every = c.every;
    options.wal_fsync = false;
    const Cadence cadence = DriveGrowingCache(options);
    EXPECT_EQ(cadence.barriers, c.barriers);
    ASSERT_EQ(cadence.image_pairs.size(), c.barriers.size() + 1);
    EXPECT_EQ(cadence.image_pairs.back(), 100);
    int64_t written = 0;
    for (const int64_t pairs : cadence.image_pairs) written += pairs;
    EXPECT_LE(written, 3 * cadence.image_pairs.back());

    // The newest two images stay: the last periodic one and the final one.
    std::vector<std::string> files;
    ASSERT_TRUE(util::ListDirectoryFiles(options.dir, &files).ok());
    std::vector<int64_t> kept;
    for (const std::string& name : files) {
      int64_t barrier = 0;
      if (ParseSnapshotName(name, &barrier)) kept.push_back(barrier);
    }
    std::sort(kept.begin(), kept.end());
    EXPECT_EQ(kept, (std::vector<int64_t>{c.barriers.back(), 101}));
  }
}

// A resumed manager counts the cadence from the recovered image, its
// barrier and its pairs, or from nothing when no image was recovered, so
// it snapshots where the uninterrupted run does.
TEST(ManagerTest, ResumedCadenceStartsFromTheRecoveredImage) {
  const struct {
    int64_t halt;
    std::vector<int64_t> before_halt;
    std::vector<int64_t> after_resume;
  } cases[] = {
      {2, {}, {3, 7, 13, 25, 49, 97}},
      {20, {3, 7, 13}, {25, 49, 97}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.halt);
    PersistOptions options;
    options.dir = FreshDir("manager_cadence_halt" + std::to_string(c.halt));
    options.snapshot_every = 4;
    options.wal_fsync = false;
    options.halt_after_barrier = c.halt;
    EXPECT_EQ(DriveGrowingCache(options).barriers, c.before_halt);

    options.halt_after_barrier = -1;
    options.resume = true;
    const Cadence resumed = DriveGrowingCache(options);
    EXPECT_EQ(resumed.counters.durable_barrier, c.halt);
    EXPECT_EQ(resumed.counters.snapshot_loaded, c.before_halt.empty() ? 0 : 1);
    EXPECT_EQ(resumed.counters.cache_image_verified,
              c.before_halt.empty() ? 0 : 1);
    EXPECT_EQ(resumed.counters.divergent_barriers, 0);
    EXPECT_EQ(resumed.barriers, c.after_resume);
  }
}

// --------------------------------------------------- end-to-end serve

struct ReplayResult {
  std::string report_jsonl;
  util::Status persist_status;
  PersistCounters counters;
  int64_t replayed_microtasks = 0;
  int64_t total_microtasks = 0;
  cache::CacheStats cache_stats;
};

// One full serving replay of a fixed 8-query workload.
ReplayResult RunReplay(const std::string& persist_dir, bool resume,
                       int64_t halt_after_barrier, int64_t jobs,
                       bool with_cache = false,
                       std::vector<cache::ExportedEntry> warm = {},
                       int64_t snapshot_every = 4, int64_t capacity = -1) {
  static const auto dataset = data::MakeUniformLadder(12, 1.0, 0.8);
  static judgment::ComparisonOptions comparison;
  static baselines::HeapSortTopK algorithm(comparison);

  const std::vector<double> arrivals =
      serve::PoissonArrivals(8, 0.01, /*seed=*/31);
  std::vector<serve::QueryRequest> requests(8);
  for (serve::QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 4;
  }

  serve::ServeOptions options;
  options.schedule.abandon_probability = 0.05;  // exercise requeues
  options.max_inflight = 3;
  options.jobs = jobs;
  options.seed = 31;
  options.cache.enabled = with_cache;
  options.cache.capacity = capacity;
  options.persist.dir = persist_dir;
  options.persist.resume = resume;
  options.persist.snapshot_every = snapshot_every;
  options.persist.wal_fsync = false;  // keep the suite fast
  options.persist.halt_after_barrier = halt_after_barrier;

  serve::QueryService service(options);
  service.RestoreCache(warm);
  const std::vector<serve::QueryOutcome> outcomes =
      service.Replay(requests, arrivals);

  ReplayResult result;
  result.report_jsonl = serve::RenderServeReportJsonl(
      serve::BuildServeReport(outcomes, service.assignment_stats(),
                              service.makespan_seconds(),
                              service.total_rounds()),
      outcomes);
  result.persist_status = service.persist_status();
  result.counters = service.persist_counters();
  result.replayed_microtasks = service.replayed_microtasks();
  result.cache_stats = service.cache_stats();
  for (const serve::QueryOutcome& o : outcomes) {
    result.total_microtasks += o.total_microtasks;
  }
  return result;
}

// The tentpole contract: halt persistence mid-run (the on-disk state a
// crash would leave), resume, and the resumed run's machine-readable
// report is byte-identical to an uninterrupted run's — for jobs=1 and
// jobs=8, with catch-up verified rather than assumed.
TEST(PersistEndToEndTest, HaltAndResumeIsByteIdentical) {
  const ReplayResult baseline =
      RunReplay(/*persist_dir=*/"", false, -1, /*jobs=*/1);
  ASSERT_FALSE(baseline.report_jsonl.empty());

  for (const int64_t jobs : {int64_t{1}, int64_t{8}}) {
    SCOPED_TRACE(jobs);
    const std::string dir =
        FreshDir("persist_resume_jobs" + std::to_string(jobs));
    const ReplayResult halted =
        RunReplay(dir, false, /*halt_after_barrier=*/6, jobs);
    ASSERT_TRUE(halted.persist_status.ok());
    // The halted run still finished (halt is fail-stop for persistence
    // only), and its own report already matches.
    EXPECT_EQ(halted.report_jsonl, baseline.report_jsonl);

    const ReplayResult resumed = RunReplay(dir, true, -1, jobs);
    ASSERT_TRUE(resumed.persist_status.ok());
    EXPECT_EQ(resumed.report_jsonl, baseline.report_jsonl);
    EXPECT_EQ(resumed.counters.resumed, 1);
    EXPECT_EQ(resumed.counters.durable_barrier, 6);
    EXPECT_EQ(resumed.counters.replayed_barriers, 7);
    // Barriers 0..2 were pruned when the barrier-3 snapshot landed; 3 is
    // verified against the snapshot, 4..6 against their WAL records.
    EXPECT_EQ(resumed.counters.verified_barriers, 4);
    EXPECT_EQ(resumed.counters.cache_image_verified, 1);
    EXPECT_EQ(resumed.counters.divergent_barriers, 0);
    EXPECT_EQ(resumed.counters.cache_image_divergent, 0);
    EXPECT_GT(resumed.replayed_microtasks, 0);
  }
}

// The WAL stores one barrier record per sealed barrier and nothing else:
// a cached replay that takes no snapshot and stops persisting after its
// last barrier leaves exactly barriers 0..N on disk.
TEST(PersistEndToEndTest, WalHoldsOnlyBarrierRecords) {
  const std::string dir = FreshDir("persist_barrier_only");
  const ReplayResult full = RunReplay(dir, false, -1, 1, /*with_cache=*/true);
  ASSERT_TRUE(full.persist_status.ok());
  SnapshotData final_snapshot;
  ASSERT_TRUE(LoadLatestSnapshot(dir, &final_snapshot).ok());
  ASSERT_TRUE(final_snapshot.complete);
  const int64_t last = final_snapshot.barrier.barrier;
  ASSERT_GT(last, 0);

  const ReplayResult halted =
      RunReplay(dir, false, /*halt_after_barrier=*/last, 1,
                /*with_cache=*/true, {}, /*snapshot_every=*/0);
  ASSERT_TRUE(halted.persist_status.ok());
  ASSERT_GT(halted.cache_stats.inserts, 0);
  EXPECT_EQ(halted.counters.snapshots, 0);
  EXPECT_EQ(halted.counters.wal_records, last + 1);

  const auto read = ReadWal(dir, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->truncated);
  ASSERT_EQ(static_cast<int64_t>(read->records.size()), last + 1);
  for (int64_t b = 0; b <= last; ++b) {
    EXPECT_EQ(read->records[b].type, RecordType::kBarrier);
    EXPECT_EQ(read->records[b].barrier.barrier, b);
  }
}

// A zero-capacity cache stages and stores nothing, so its barriers hash no
// cache insert: halted after its last barrier with no snapshot taken, it
// leaves the WAL of a run without a cache, record for record.
TEST(PersistEndToEndTest, ZeroCapacityCacheWritesTheUncachedWal) {
  const std::string probe = FreshDir("persist_capacity0_probe");
  ASSERT_TRUE(RunReplay(probe, false, -1, 1).persist_status.ok());
  SnapshotData final_snapshot;
  ASSERT_TRUE(LoadLatestSnapshot(probe, &final_snapshot).ok());
  const int64_t last = final_snapshot.barrier.barrier;
  ASSERT_GT(last, 0);

  std::vector<std::vector<std::string>> wals;
  for (const bool with_cache : {false, true}) {
    SCOPED_TRACE(with_cache);
    const std::string dir = FreshDir(std::string("persist_capacity0_") +
                                     (with_cache ? "zero" : "off"));
    const ReplayResult halted =
        RunReplay(dir, false, /*halt_after_barrier=*/last, 1, with_cache, {},
                  /*snapshot_every=*/0, /*capacity=*/0);
    ASSERT_TRUE(halted.persist_status.ok());
    // The zero-capacity clients were live: every lookup missed.
    EXPECT_EQ(halted.cache_stats.lookups > 0, with_cache);
    EXPECT_EQ(halted.cache_stats.misses, halted.cache_stats.lookups);
    const auto read = ReadWal(dir, 0);
    ASSERT_TRUE(read.ok());
    wals.emplace_back();
    for (const WalRecord& record : read->records) {
      wals.back().push_back(EncodeBarrier(record.barrier));
    }
  }
  ASSERT_EQ(static_cast<int64_t>(wals[0].size()), last + 1);
  ASSERT_EQ(wals[1].size(), wals[0].size());
  for (size_t b = 0; b < wals[0].size(); ++b) {
    EXPECT_EQ(wals[1][b], wals[0][b]) << "barrier " << b;
  }
}

// At snapshot_every 1 a cached replay writes an image each time its cache
// has doubled, plus the final one; with the cache off it writes the first
// due image and the final one. Neither changes the report.
TEST(PersistEndToEndTest, SnapshotsFollowCacheGrowth) {
  for (const bool with_cache : {true, false}) {
    SCOPED_TRACE(with_cache);
    const ReplayResult unpersisted = RunReplay("", false, -1, 1, with_cache);
    const std::string dir = FreshDir(
        std::string("persist_cadence_") + (with_cache ? "cache" : "nocache"));
    const ReplayResult persisted =
        RunReplay(dir, false, -1, 1, with_cache, {}, /*snapshot_every=*/1);
    ASSERT_TRUE(persisted.persist_status.ok());
    EXPECT_EQ(persisted.report_jsonl, unpersisted.report_jsonl);

    SnapshotData final_snapshot;
    ASSERT_TRUE(LoadLatestSnapshot(dir, &final_snapshot).ok());
    ASSERT_TRUE(final_snapshot.complete);
    // Far more barriers than images: one image per due barrier would fail.
    ASSERT_GT(final_snapshot.barrier.barrier, 16);
    const int64_t pairs =
        static_cast<int64_t>(final_snapshot.cache_entries.size());
    if (with_cache) {
      ASSERT_GT(pairs, 0);
      const int64_t floor_log2 =
          static_cast<int64_t>(std::bit_width(static_cast<uint64_t>(pairs))) -
          1;
      EXPECT_LE(persisted.counters.snapshots, floor_log2 + 3);
    } else {
      EXPECT_EQ(pairs, 0);
      EXPECT_EQ(persisted.counters.snapshots, 2);
    }
  }
}

// The cadence decides only how many images are written: a cached replay
// at snapshot_every 0, 1 and 8 gives the same report and the same final
// barrier record and cache image.
TEST(PersistEndToEndTest, CadenceNeverChangesOutcomes) {
  const auto image_bytes = [](const SnapshotData& snapshot) {
    std::string bytes;
    for (const cache::ExportedEntry& entry : snapshot.cache_entries) {
      bytes += EncodeCacheInsert(entry);
    }
    return bytes;
  };
  std::vector<std::string> reports;
  std::vector<SnapshotData> finals;
  for (const int64_t every : {int64_t{0}, int64_t{1}, int64_t{8}}) {
    SCOPED_TRACE(every);
    const std::string dir =
        FreshDir("persist_cadence_outcomes" + std::to_string(every));
    const ReplayResult result =
        RunReplay(dir, false, -1, 1, /*with_cache=*/true, {}, every);
    ASSERT_TRUE(result.persist_status.ok());
    reports.push_back(result.report_jsonl);
    finals.emplace_back();
    ASSERT_TRUE(LoadLatestSnapshot(dir, &finals.back()).ok());
    ASSERT_TRUE(finals.back().complete);
  }
  ASSERT_FALSE(finals[0].cache_entries.empty());
  for (size_t i = 1; i < finals.size(); ++i) {
    EXPECT_EQ(reports[i], reports[0]);
    EXPECT_EQ(EncodeBarrier(finals[i].barrier),
              EncodeBarrier(finals[0].barrier));
    EXPECT_EQ(image_bytes(finals[i]), image_bytes(finals[0]));
    EXPECT_EQ(finals[i].cache_digest, finals[0].cache_digest);
  }
}

// Corrupting the WAL tail lowers the durable frontier (longer catch-up)
// but never changes the output or crashes the resume.
TEST(PersistEndToEndTest, CorruptWalTailDegradesGracefully) {
  const ReplayResult baseline = RunReplay("", false, -1, 1);
  const std::string dir = FreshDir("persist_corrupt_tail");
  const ReplayResult halted = RunReplay(dir, false, 6, 1);
  ASSERT_TRUE(halted.persist_status.ok());

  // Damage the newest segment's tail.
  const int64_t last = MaxWalSegment(dir);
  ASSERT_GE(last, 0);
  const std::string victim = dir + "/" + WalSegmentName(last);
  std::string bytes;
  ASSERT_TRUE(util::ReadFileToString(victim, &bytes).ok());
  bytes[bytes.size() - 2] ^= 0x10;
  ASSERT_TRUE(util::WriteFileAtomic(victim, bytes).ok());

  const ReplayResult resumed = RunReplay(dir, true, -1, 1);
  ASSERT_TRUE(resumed.persist_status.ok());
  EXPECT_EQ(resumed.report_jsonl, baseline.report_jsonl);
  EXPECT_EQ(resumed.counters.wal_truncated, 1);
  EXPECT_GT(resumed.counters.wal_bytes_dropped, 0);
  EXPECT_LT(resumed.counters.durable_barrier, 6);
  EXPECT_EQ(resumed.counters.divergent_barriers, 0);
}

// Resuming under a different configuration is refused (the replay still
// completes, without durability) instead of silently diverging.
TEST(PersistEndToEndTest, ResumeRefusesConfigMismatch) {
  const std::string dir = FreshDir("persist_fingerprint");
  const ReplayResult first = RunReplay(dir, false, 6, 1);
  ASSERT_TRUE(first.persist_status.ok());

  // Same directory, different workload shape: cache toggled on changes the
  // configuration fingerprint.
  const ReplayResult mismatched = RunReplay(dir, true, -1, 1,
                                            /*with_cache=*/true);
  EXPECT_EQ(mismatched.persist_status.code(),
            util::StatusCode::kFailedPrecondition);
  ASSERT_FALSE(mismatched.report_jsonl.empty());
}

// Warm restart: a later generation seeded with the snapshot's cache image
// reuses the previous run's judgments and buys strictly fewer microtasks.
TEST(PersistEndToEndTest, WarmRestartReusesCacheImage) {
  const std::string dir = FreshDir("persist_warm");
  const ReplayResult cold = RunReplay(dir, false, -1, 1, /*with_cache=*/true);
  ASSERT_TRUE(cold.persist_status.ok());
  ASSERT_GT(cold.counters.snapshots, 0);

  SnapshotData snapshot;
  ASSERT_TRUE(LoadLatestSnapshot(dir, &snapshot, nullptr).ok());
  EXPECT_TRUE(snapshot.complete);
  ASSERT_FALSE(snapshot.cache_entries.empty());

  const ReplayResult warm =
      RunReplay("", false, -1, 1, /*with_cache=*/true,
                snapshot.cache_entries);
  EXPECT_EQ(warm.cache_stats.restored,
            static_cast<int64_t>(snapshot.cache_entries.size()));
  EXPECT_GT(warm.cache_stats.hits, 0);
  EXPECT_LT(warm.total_microtasks, cold.total_microtasks);
}

// A fully-durable directory (the run completed) resumes as pure catch-up:
// nothing is re-appended, the report still matches.
TEST(PersistEndToEndTest, ResumeOfCompleteRunIsPureCatchup) {
  const std::string dir = FreshDir("persist_complete");
  const ReplayResult full = RunReplay(dir, false, -1, 1);
  ASSERT_TRUE(full.persist_status.ok());

  const ReplayResult resumed = RunReplay(dir, true, -1, 1);
  ASSERT_TRUE(resumed.persist_status.ok());
  EXPECT_EQ(resumed.report_jsonl, full.report_jsonl);
  EXPECT_EQ(resumed.counters.divergent_barriers, 0);
  EXPECT_EQ(resumed.counters.wal_records, 0);
}

}  // namespace
}  // namespace crowdtopk::persist
