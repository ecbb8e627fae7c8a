// Wire protocol of the network serving subsystem (docs/NETWORK.md).
//
// Framing: every message travels as one length-prefixed, checksummed frame
//
//     [u32 payload_len][u32 crc32(payload)][payload]
//
// with all integers little-endian (util/codec.h) and the CRC the same IEEE
// polynomial the write-ahead log uses (util::Crc32). A frame whose length
// exceeds kMaxFramePayload or whose checksum does not verify is a stream
// error: the receiver reports it and closes the connection — framing is
// not resynchronizable, and a corrupt length prefix would otherwise make
// the reader wait forever on garbage.
//
// Payloads start with a MessageType byte. The first exchange on every
// connection is the version handshake: the client sends kHello{magic,
// version}; the server answers kHelloAck{version} or an error frame with
// kVersionMismatch and closes. Everything after the handshake is
// request/reply, except kResult, which the server pushes to the submitting
// connection when the query completes (submission is asynchronous: the
// client gets kSubmitAck{query_id} as soon as the query is queued).
//
// The protocol is deliberately version-gated rather than
// forward-compatible: both ends are built from this repo, so a version
// bump is a recompile, not a migration.

#ifndef CROWDTOPK_NET_PROTOCOL_H_
#define CROWDTOPK_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/codec.h"
#include "util/status.h"

namespace crowdtopk::net {

// "TK4NET01", little-endian, same naming scheme as the persist magics.
inline constexpr uint64_t kNetMagic = 0x313054454e344b54ULL;
// v2: Result carries shard_id; StatsReply carries upstream retry/redial
// counters (both zero when the answering process runs one in-process
// shard). v1 peers are refused at the handshake.
inline constexpr uint32_t kProtocolVersion = 2;

// Upper bound on a frame payload. Results carry at most k item ids, so
// real frames are tiny; the bound exists to reject a corrupt length prefix
// before it turns into a giant allocation.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

// Bytes of framing overhead in front of every payload.
inline constexpr size_t kFrameHeaderBytes = 8;

enum class MessageType : uint8_t {
  kHello = 1,         // client -> server: {magic, version}
  kHelloAck = 2,      // server -> client: {version}
  kSubmitQuery = 3,   // client -> server: {dataset, k, algo, alpha, budget}
  kSubmitAck = 4,     // server -> client: {query_id} — queued, result later
  kStatusRequest = 5, // client -> server: {query_id}
  kStatusReply = 6,   // server -> client: {query_id, state}
  kResult = 7,        // server -> client: pushed when the query finishes
  kCancel = 8,        // client -> server: {query_id}
  kCancelAck = 9,     // server -> client: {query_id, cancelled}
  kStatsRequest = 10, // client -> server: {}
  kStatsReply = 11,   // server -> client: server counters
  kError = 12,        // server -> client: {code, query_id, message}
};

// Machine-readable error taxonomy carried by kError frames; MapErrorCode
// turns one into the util::Status the client library surfaces.
enum class ErrorCode : uint8_t {
  kVersionMismatch = 1,  // handshake refused; connection closes
  kMalformed = 2,        // undecodable or out-of-order message; closes
  kUnavailable = 3,      // draining or at connection capacity — retryable
  kQueueFull = 4,        // admission queue at max_queue — retryable
  kInvalidArgument = 5,  // unknown dataset/algo, bad k/alpha/budget
  kNotFound = 6,         // query id the server does not know
  kInternal = 7,
};

// Lifecycle a query id moves through, as reported by kStatusReply.
enum class QueryState : uint8_t {
  kUnknown = 0,  // never seen, or already delivered and pruned
  kQueued = 1,
  kRunning = 2,
  kDone = 3,  // finished; the result frame is queued or delivered
};

struct Hello {
  uint64_t magic = kNetMagic;
  uint32_t version = kProtocolVersion;
};

struct HelloAck {
  uint32_t version = kProtocolVersion;
};

// One top-k query. dataset / algo name the server-side factories; alpha
// and budget parameterise the confidence contract (COMP's significance
// level and per-pair budget B), so every client chooses its own
// cost/confidence point.
struct SubmitQuery {
  std::string dataset;
  int64_t k = 10;
  std::string algo;
  double alpha = 0.02;
  // Per-pair microtask budget B; <= 0 keeps the server default.
  int64_t budget = 0;
  // Seed-stream stamp (serve::QueryRequest::seed_stream): < 0 (the
  // default) keys the query's judgment/latency streams off the query id
  // the server assigns; a front router stamps its global query id here so
  // the outcome is the same on whichever remote shard runs it.
  int64_t seed_stream = -1;
};

struct SubmitAck {
  int64_t query_id = 0;
};

struct StatusRequest {
  int64_t query_id = 0;
};

struct StatusReply {
  int64_t query_id = 0;
  QueryState state = QueryState::kUnknown;
};

// Terminal outcome of one query. Latency figures are in *simulated*
// seconds (the crowd is a deterministic simulation), which is what makes
// the loadgen report byte-reproducible.
struct Result {
  int64_t query_id = 0;
  uint32_t status_code = 0;  // util::StatusCode
  // Always 0: queue-full refusals travel as QUEUE_FULL error frames, not
  // as Results. The byte stays because the golden frames pin it.
  uint8_t reject_reason = 0;
  std::string message;       // status message; empty on success
  std::vector<int32_t> items;
  double precision_at_k = 0.0;
  int64_t total_microtasks = 0;
  int64_t rounds = 0;
  double latency_seconds = 0.0;
  double queue_wait_seconds = 0.0;
  // Shard that executed the query: 0 at K = 1, else the routed shard's id.
  int64_t shard_id = 0;
};

struct Cancel {
  int64_t query_id = 0;
};

struct CancelAck {
  int64_t query_id = 0;
  // True when the query was still queued and has been removed; a running
  // or finished query is not cancellable.
  bool cancelled = false;
};

struct StatsReply {
  bool draining = false;
  int64_t active_connections = 0;
  int64_t accepted_connections = 0;
  int64_t rejected_connections = 0;
  int64_t idle_closed = 0;
  int64_t frames_in = 0;
  int64_t frames_out = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t crc_errors = 0;
  int64_t malformed_frames = 0;
  int64_t version_mismatches = 0;
  int64_t queries_submitted = 0;
  int64_t queries_completed = 0;
  int64_t queries_rejected = 0;
  int64_t queries_cancelled = 0;
  int64_t batches = 0;
  // Upstream client traffic (net::Client retry/redial counters): nonzero
  // only when the answering process itself dials other servers — a router
  // fronting remote shards.
  int64_t client_retries = 0;
  int64_t client_redials = 0;
};

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  int64_t query_id = -1;  // -1 when the error is not about one query
  std::string message;
};

// One decoded message; `type` says which member is meaningful (same
// pattern as persist::WalRecord).
struct NetMessage {
  MessageType type = MessageType::kError;
  Hello hello;
  HelloAck hello_ack;
  SubmitQuery submit;
  SubmitAck submit_ack;
  StatusRequest status_request;
  StatusReply status_reply;
  Result result;
  Cancel cancel;
  CancelAck cancel_ack;
  StatsReply stats_reply;
  Error error;
};

// ----- payload codec ------------------------------------------------------

// Serialises `message` into a payload (type byte first, no framing).
std::string EncodeMessage(const NetMessage& message);

// Parses one payload. False on any malformed byte sequence, including
// trailing garbage after a well-formed body.
bool DecodeMessage(const std::string& payload, NetMessage* out);

// Wraps a payload into a wire frame: length prefix + CRC32 + payload.
std::string FramePayload(const std::string& payload);

// EncodeMessage + FramePayload.
std::string FrameMessage(const NetMessage& message);

// Convenience constructor for error frames.
NetMessage MakeError(ErrorCode code, int64_t query_id, std::string message);

// The util::Status a client surfaces for a received error frame.
util::Status MapErrorCode(ErrorCode code, const std::string& message);

// ----- incremental deframer ----------------------------------------------

// Accumulates raw received bytes and yields complete frame payloads.
// Truncation is not an error (more bytes may arrive); an oversized length
// prefix or a checksum mismatch is, and the connection must close.
class FrameReader {
 public:
  enum class Next {
    kFrame,     // *payload holds the next complete payload
    kNeedMore,  // buffer holds only part of a frame
    kCorrupt,   // CRC mismatch — unrecoverable stream error
    kOversized, // length prefix exceeds max_payload — unrecoverable
  };

  explicit FrameReader(uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Append(const char* data, size_t size) { buffer_.append(data, size); }
  void Append(const std::string& data) { Append(data.data(), data.size()); }

  Next Pop(std::string* payload);

  size_t buffered_bytes() const { return buffer_.size() - offset_; }

 private:
  uint32_t max_payload_;
  std::string buffer_;
  size_t offset_ = 0;  // consumed prefix, compacted lazily
};

}  // namespace crowdtopk::net

#endif  // CROWDTOPK_NET_PROTOCOL_H_
