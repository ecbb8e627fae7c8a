// Tests for the network serving subsystem (src/net): wire-protocol codec
// round-trips, golden frame bytes, corrupt/truncated/oversized frame
// rejection, version-gated handshake, and end-to-end loopback serving
// through the network server's engine (shard::RouterEngine at K = 1)
// including graceful drain.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/gaussian_dataset.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "shard/router_engine.h"
#include "util/env.h"
#include "util/file_io.h"
#include "util/status.h"

namespace crowdtopk::net {
namespace {

// ----- codec ---------------------------------------------------------------

// One message of every type with non-default field values, so round-trip
// and golden coverage includes every encoder branch.
std::vector<NetMessage> SampleMessages() {
  std::vector<NetMessage> messages;
  NetMessage m;

  m.type = MessageType::kHello;
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kHelloAck;
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kSubmitQuery;
  m.submit.dataset = "peopleage";
  m.submit.k = 7;
  m.submit.algo = "spr";
  m.submit.alpha = 0.05;
  m.submit.budget = 500;
  m.submit.seed_stream = 77;  // v2: router-stamped global id
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kSubmitAck;
  m.submit_ack.query_id = 42;
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kStatusRequest;
  m.status_request.query_id = 42;
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kStatusReply;
  m.status_reply.query_id = 42;
  m.status_reply.state = QueryState::kRunning;
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kResult;
  m.result.query_id = 42;
  m.result.status_code = 0;
  m.result.reject_reason = 0;
  m.result.items = {9, 8, 7};
  m.result.precision_at_k = 1.0;
  m.result.total_microtasks = 1234;
  m.result.rounds = 17;
  m.result.latency_seconds = 321.5;
  m.result.queue_wait_seconds = 2.25;
  m.result.shard_id = 3;  // v2: executing shard
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kCancel;
  m.cancel.query_id = 43;
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kCancelAck;
  m.cancel_ack.query_id = 43;
  m.cancel_ack.cancelled = true;
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kStatsRequest;
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kStatsReply;
  m.stats_reply.draining = true;
  m.stats_reply.active_connections = 3;
  m.stats_reply.accepted_connections = 11;
  m.stats_reply.rejected_connections = 1;
  m.stats_reply.idle_closed = 2;
  m.stats_reply.frames_in = 100;
  m.stats_reply.frames_out = 101;
  m.stats_reply.bytes_in = 5000;
  m.stats_reply.bytes_out = 5001;
  m.stats_reply.crc_errors = 1;
  m.stats_reply.malformed_frames = 2;
  m.stats_reply.version_mismatches = 3;
  m.stats_reply.queries_submitted = 20;
  m.stats_reply.queries_completed = 18;
  m.stats_reply.queries_rejected = 2;
  m.stats_reply.queries_cancelled = 1;
  m.stats_reply.batches = 5;
  m.stats_reply.client_retries = 4;  // v2: upstream router traffic
  m.stats_reply.client_redials = 2;
  messages.push_back(m);

  m = NetMessage();
  m.type = MessageType::kError;
  m.error.code = ErrorCode::kQueueFull;
  m.error.query_id = 44;
  m.error.message = "admission queue full";
  messages.push_back(m);

  return messages;
}

void ExpectSameMessage(const NetMessage& a, const NetMessage& b) {
  ASSERT_EQ(a.type, b.type);
  // Spot-check the payload-bearing members; a full field-by-field equality
  // would just restate the codec.
  switch (a.type) {
    case MessageType::kSubmitQuery:
      EXPECT_EQ(a.submit.dataset, b.submit.dataset);
      EXPECT_EQ(a.submit.k, b.submit.k);
      EXPECT_EQ(a.submit.algo, b.submit.algo);
      EXPECT_DOUBLE_EQ(a.submit.alpha, b.submit.alpha);
      EXPECT_EQ(a.submit.budget, b.submit.budget);
      EXPECT_EQ(a.submit.seed_stream, b.submit.seed_stream);
      break;
    case MessageType::kResult:
      EXPECT_EQ(a.result.query_id, b.result.query_id);
      EXPECT_EQ(a.result.items, b.result.items);
      EXPECT_EQ(a.result.total_microtasks, b.result.total_microtasks);
      EXPECT_EQ(a.result.rounds, b.result.rounds);
      EXPECT_DOUBLE_EQ(a.result.latency_seconds, b.result.latency_seconds);
      EXPECT_DOUBLE_EQ(a.result.queue_wait_seconds,
                       b.result.queue_wait_seconds);
      EXPECT_EQ(a.result.shard_id, b.result.shard_id);
      break;
    case MessageType::kStatsReply:
      EXPECT_EQ(a.stats_reply.draining, b.stats_reply.draining);
      EXPECT_EQ(a.stats_reply.queries_submitted,
                b.stats_reply.queries_submitted);
      EXPECT_EQ(a.stats_reply.batches, b.stats_reply.batches);
      EXPECT_EQ(a.stats_reply.client_retries, b.stats_reply.client_retries);
      EXPECT_EQ(a.stats_reply.client_redials, b.stats_reply.client_redials);
      break;
    case MessageType::kError:
      EXPECT_EQ(a.error.code, b.error.code);
      EXPECT_EQ(a.error.query_id, b.error.query_id);
      EXPECT_EQ(a.error.message, b.error.message);
      break;
    default:
      break;
  }
}

TEST(NetProtocolTest, EveryMessageTypeRoundTrips) {
  for (const NetMessage& m : SampleMessages()) {
    const std::string payload = EncodeMessage(m);
    NetMessage decoded;
    ASSERT_TRUE(DecodeMessage(payload, &decoded))
        << "type " << static_cast<int>(m.type);
    ExpectSameMessage(m, decoded);
  }
}

TEST(NetProtocolTest, FrameReaderReassemblesByteByByte) {
  std::string stream;
  for (const NetMessage& m : SampleMessages()) stream += FrameMessage(m);
  FrameReader reader;
  std::vector<NetMessage> decoded;
  std::string payload;
  // Worst-case delivery: one byte per recv.
  for (const char c : stream) {
    reader.Append(&c, 1);
    for (;;) {
      const FrameReader::Next next = reader.Pop(&payload);
      if (next != FrameReader::Next::kFrame) {
        ASSERT_EQ(next, FrameReader::Next::kNeedMore);
        break;
      }
      NetMessage m;
      ASSERT_TRUE(DecodeMessage(payload, &m));
      decoded.push_back(m);
    }
  }
  const std::vector<NetMessage> expected = SampleMessages();
  ASSERT_EQ(decoded.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectSameMessage(expected[i], decoded[i]);
  }
}

// The golden file pins the wire bytes of every message type: any codec or
// field-order change shows up as a reviewable binary diff. Regenerate with
// CROWDTOPK_UPDATE_GOLDEN=1.
TEST(NetProtocolTest, GoldenFrameBytes) {
  std::string stream;
  for (const NetMessage& m : SampleMessages()) stream += FrameMessage(m);

  const std::string golden_path =
      std::string(CROWDTOPK_GOLDEN_DIR) + "/net_frames.bin";
  if (util::GetEnvBool("CROWDTOPK_UPDATE_GOLDEN", false)) {
    ASSERT_TRUE(util::WriteFileAtomic(golden_path, stream).ok());
    GTEST_SKIP() << "golden updated: " << golden_path;
  }
  std::string golden;
  ASSERT_TRUE(util::ReadFileToString(golden_path, &golden).ok())
      << "missing " << golden_path
      << " — regenerate with CROWDTOPK_UPDATE_GOLDEN=1";
  EXPECT_EQ(stream, golden)
      << "wire bytes changed; if intentional, bump kProtocolVersion, "
         "regenerate with CROWDTOPK_UPDATE_GOLDEN=1, and commit";

  // The pinned bytes must also decode (golden is not write-only).
  FrameReader reader;
  reader.Append(golden);
  std::string payload;
  size_t frames = 0;
  while (reader.Pop(&payload) == FrameReader::Next::kFrame) {
    NetMessage m;
    ASSERT_TRUE(DecodeMessage(payload, &m));
    ++frames;
  }
  EXPECT_EQ(frames, SampleMessages().size());
}

// Round trip through the pinned bytes: decode every golden frame,
// re-encode the decoded message, and byte-diff the rebuilt stream against
// the golden. GoldenFrameBytes pins encode(fresh structs); this pins
// encode(decode(x)) == x, so a lossy decoder (a dropped field, a default
// silently substituted) fails even though fresh renders still match.
TEST(NetProtocolTest, GoldenFrameBytesReencodeByteIdentically) {
  if (util::GetEnvBool("CROWDTOPK_UPDATE_GOLDEN", false)) {
    GTEST_SKIP() << "goldens being regenerated; see GoldenFrameBytes";
  }
  const std::string golden_path =
      std::string(CROWDTOPK_GOLDEN_DIR) + "/net_frames.bin";
  std::string golden;
  ASSERT_TRUE(util::ReadFileToString(golden_path, &golden).ok())
      << "missing " << golden_path
      << " — regenerate with CROWDTOPK_UPDATE_GOLDEN=1";

  FrameReader reader;
  reader.Append(golden);
  std::string payload, rebuilt;
  size_t frames = 0;
  while (reader.Pop(&payload) == FrameReader::Next::kFrame) {
    NetMessage m;
    ASSERT_TRUE(DecodeMessage(payload, &m)) << "frame " << frames;
    rebuilt += FrameMessage(m);
    ++frames;
  }
  ASSERT_EQ(frames, SampleMessages().size());
  EXPECT_EQ(rebuilt, golden)
      << "decode -> encode is not the identity on the pinned wire bytes";
}

TEST(NetProtocolTest, TruncatedFrameNeedsMoreBytes) {
  const std::string frame = FrameMessage(SampleMessages()[2]);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameReader reader;
    reader.Append(frame.data(), cut);
    std::string payload;
    EXPECT_EQ(reader.Pop(&payload), FrameReader::Next::kNeedMore)
        << "cut at " << cut;
  }
}

TEST(NetProtocolTest, CorruptCrcIsRejected) {
  std::string frame = FrameMessage(SampleMessages()[2]);
  frame[frame.size() - 1] ^= 0x01;  // flip one payload bit
  FrameReader reader;
  reader.Append(frame);
  std::string payload;
  EXPECT_EQ(reader.Pop(&payload), FrameReader::Next::kCorrupt);
}

TEST(NetProtocolTest, CorruptLengthPrefixIsOversized) {
  std::string frame = FrameMessage(SampleMessages()[2]);
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(frame.data(), &huge, sizeof(huge));
  FrameReader reader;
  reader.Append(frame);
  std::string payload;
  EXPECT_EQ(reader.Pop(&payload), FrameReader::Next::kOversized);
}

TEST(NetProtocolTest, MalformedPayloadsAreRejected) {
  NetMessage out;
  EXPECT_FALSE(DecodeMessage("", &out));             // no type byte
  EXPECT_FALSE(DecodeMessage("\x7f", &out));         // unknown type
  EXPECT_FALSE(DecodeMessage("\x00", &out));         // type 0 is invalid
  std::string truncated = EncodeMessage(SampleMessages()[2]);
  truncated.resize(truncated.size() - 3);            // body cut short
  EXPECT_FALSE(DecodeMessage(truncated, &out));
  std::string padded = EncodeMessage(SampleMessages()[2]);
  padded += "xx";                                    // trailing garbage
  EXPECT_FALSE(DecodeMessage(padded, &out));
}

TEST(NetProtocolTest, ResultItemCountIsBoundsChecked) {
  // A corrupt item count larger than the remaining bytes must be rejected
  // before any allocation happens.
  util::Encoder enc;
  enc.PutU8(static_cast<uint8_t>(MessageType::kResult));
  enc.PutI64(1);            // query_id
  enc.PutU32(0);            // status_code
  enc.PutU8(0);             // reject_reason
  enc.PutString("");        // message
  enc.PutU32(0x40000000u);  // claimed item count: 1G items
  NetMessage out;
  EXPECT_FALSE(DecodeMessage(enc.Take(), &out));
}

// ----- end-to-end loopback -------------------------------------------------

TEST(NetServerTest, StartWithoutEngineIsAnError) {
  Server server{ServerOptions()};
  EXPECT_EQ(server.Start().code(), util::StatusCode::kInvalidArgument);
}

// Starts a real Server on an ephemeral loopback port, with the engine
// crowdtopk_router runs by default and a tiny injected dataset (12 items)
// so queries finish in milliseconds; Serve() runs on a background thread
// until StopServer() drains it.
class NetE2ETest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.port = 0;
    options.seed = 20170514;
    options.idle_timeout_ms = options.idle_timeout_ms == 60000
                                  ? 10000
                                  : options.idle_timeout_ms;
    if (options.dataset_factory == nullptr) {
      options.dataset_factory =
          [](const std::string& name,
             uint64_t) -> std::unique_ptr<data::Dataset> {
        if (name != "tiny") return nullptr;
        return data::MakeUniformLadder(12, 2.0, 0.5);
      };
    }
    options.engine_factory = [](const ServerOptions& engine_options,
                                std::function<void()> wake) {
      return std::make_unique<shard::RouterEngine>(
          engine_options, shard::RouterEngineConfig(), std::move(wake));
    };
    server_ = std::make_unique<Server>(options);
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  void StopServer() {
    if (!server_) return;
    server_->RequestDrain();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  void TearDown() override { StopServer(); }

  ClientOptions MakeClientOptions() const {
    ClientOptions options;
    options.port = server_->port();
    options.max_retries = 0;  // tests assert on first responses
    return options;
  }

  SubmitQuery TinyQuery(const std::string& algo = "spr") const {
    SubmitQuery q;
    q.dataset = "tiny";
    q.k = 3;
    q.algo = algo;
    return q;
  }

  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
};

TEST_F(NetE2ETest, SubmitAwaitRoundTrip) {
  StartServer(ServerOptions());
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Connect().ok());

  const util::StatusOr<int64_t> id = client.Submit(TinyQuery());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const util::StatusOr<Result> result = client.AwaitResult(*id);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->query_id, *id);
  EXPECT_EQ(result->status_code,
            static_cast<uint32_t>(util::StatusCode::kOk));
  EXPECT_EQ(result->items.size(), 3u);
  // MakeUniformLadder puts the top items at the highest ids; precision is
  // against that ground truth.
  EXPECT_GT(result->precision_at_k, 0.0);
  EXPECT_GT(result->total_microtasks, 0);
  EXPECT_GT(result->latency_seconds, 0.0);

  // The finished query is remembered as done, and its stats counted.
  const util::StatusOr<QueryState> state = client.GetQueryState(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, QueryState::kDone);
  const util::StatusOr<StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->queries_submitted, 1);
  EXPECT_EQ(stats->queries_completed, 1);
  EXPECT_GE(stats->batches, 1);
}

TEST_F(NetE2ETest, ResultsAreDeterministicAcrossFreshServers) {
  // Two servers with the same seed serve identical first submissions: an
  // outcome is a pure function of (options, seed, request, query id).
  Result results[2];
  for (int round = 0; round < 2; ++round) {
    StartServer(ServerOptions());
    Client client(MakeClientOptions());
    ASSERT_TRUE(client.Connect().ok());
    const util::StatusOr<int64_t> id = client.Submit(TinyQuery());
    ASSERT_TRUE(id.ok());
    util::StatusOr<Result> result = client.AwaitResult(*id);
    ASSERT_TRUE(result.ok());
    results[round] = std::move(*result);
    StopServer();
    server_.reset();
  }
  EXPECT_EQ(results[0].items, results[1].items);
  EXPECT_EQ(results[0].total_microtasks, results[1].total_microtasks);
  EXPECT_EQ(results[0].rounds, results[1].rounds);
  EXPECT_DOUBLE_EQ(results[0].latency_seconds, results[1].latency_seconds);
}

// Committed cache entries chain from batch to batch, and must stay keyed
// by dataset: `down` ranks the same item ids in the opposite order to
// `up`, so `up`'s cached verdicts served to a `down` query would pull
// `up`'s top items into its answer.
TEST_F(NetE2ETest, CachedVerdictsNeverCrossDatasets) {
  ServerOptions options;
  options.cache.enabled = true;
  options.dataset_factory = [](const std::string& name,
                               uint64_t) -> std::unique_ptr<data::Dataset> {
    if (name != "up" && name != "down") return nullptr;
    std::vector<double> scores(40);
    for (int i = 0; i < 40; ++i) scores[i] = name == "up" ? i : 39 - i;
    return std::make_unique<data::GaussianDataset>(name, std::move(scores),
                                                   /*noise_stddev=*/1.0,
                                                   /*score_scale=*/40.0);
  };
  StartServer(options);
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Connect().ok());

  std::vector<Result> results;
  for (const char* dataset : {"up", "up", "down", "down"}) {
    SubmitQuery query;
    query.dataset = dataset;
    query.k = 5;
    query.algo = "heapsort";
    query.alpha = 0.05;
    const util::StatusOr<int64_t> id = client.Submit(query);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    util::StatusOr<Result> result = client.AwaitResult(*id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(std::move(*result));
  }
  const std::vector<crowd::ItemId> top_up = {39, 38, 37, 36, 35};
  const std::vector<crowd::ItemId> top_down = {0, 1, 2, 3, 4};
  EXPECT_EQ(results[0].items, top_up);
  EXPECT_EQ(results[1].items, top_up);
  EXPECT_EQ(results[2].items, top_down);
  EXPECT_EQ(results[3].items, top_down);
  EXPECT_EQ(results[3].precision_at_k, 1.0);
}

TEST_F(NetE2ETest, UnknownDatasetAndAlgorithmAreClientErrors) {
  StartServer(ServerOptions());
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Connect().ok());

  SubmitQuery bad_dataset = TinyQuery();
  bad_dataset.dataset = "no-such-dataset";
  util::StatusOr<int64_t> id = client.Submit(bad_dataset);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), util::StatusCode::kInvalidArgument);

  SubmitQuery bad_algo = TinyQuery("no-such-algo");
  id = client.Submit(bad_algo);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), util::StatusCode::kInvalidArgument);

  SubmitQuery bad_k = TinyQuery();
  bad_k.k = 0;
  id = client.Submit(bad_k);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), util::StatusCode::kInvalidArgument);

  // The connection survives rejected submissions: a good query still runs.
  id = client.Submit(TinyQuery());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(client.AwaitResult(*id).ok());
}

TEST_F(NetE2ETest, QueueFullRejectionCarriesMachineReadableCode) {
  ServerOptions options;
  options.max_queue = 0;  // reject every submission at admission
  StartServer(options);
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Connect().ok());
  const util::StatusOr<int64_t> id = client.Submit(TinyQuery());
  ASSERT_FALSE(id.ok());
  // kQueueFull maps to ResourceExhausted — asserted on the code, never the
  // message text.
  EXPECT_EQ(id.status().code(), util::StatusCode::kResourceExhausted);
}

TEST_F(NetE2ETest, CancelUnknownOrFinishedQueryReturnsFalse) {
  StartServer(ServerOptions());
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Connect().ok());

  util::StatusOr<bool> cancelled = client.Cancel(999);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_FALSE(*cancelled);
  const util::StatusOr<QueryState> unknown = client.GetQueryState(999);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(*unknown, QueryState::kUnknown);

  const util::StatusOr<int64_t> id = client.Submit(TinyQuery());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.AwaitResult(*id).ok());
  cancelled = client.Cancel(*id);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_FALSE(*cancelled);  // already done, not cancellable
}

TEST_F(NetE2ETest, DrainRejectsNewWhileCompletingInFlight) {
  StartServer(ServerOptions());
  Client submitter(MakeClientOptions());
  ASSERT_TRUE(submitter.Connect().ok());

  // The latecomer handshakes *before* the drain so its submit frame races
  // only the drain flag, never the (stopped) acceptor.
  ClientOptions late_options = MakeClientOptions();
  late_options.request_timeout_ms = 5000;
  Client latecomer(late_options);
  ASSERT_TRUE(latecomer.Connect().ok());

  // Accepted before the drain: the SubmitAck proves admission.
  const util::StatusOr<int64_t> id = submitter.Submit(TinyQuery("heapsort"));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  server_->RequestDrain();

  // New work is refused with UNAVAILABLE while the drain runs; if the
  // drain already finished, the connection was closed, which the client
  // also surfaces as UNAVAILABLE.
  const util::StatusOr<int64_t> rejected = latecomer.Submit(TinyQuery());
  if (rejected.ok()) {
    // Tiny race window: the submit frame may have been parsed before the
    // drain flag flipped. Then it is in-flight work and must complete.
    EXPECT_TRUE(latecomer.AwaitResult(*rejected).ok());
  } else {
    EXPECT_EQ(rejected.status().code(), util::StatusCode::kUnavailable);
  }

  // The accepted query still completes and its result is delivered.
  const util::StatusOr<Result> result = submitter.AwaitResult(*id);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status_code, static_cast<uint32_t>(util::StatusCode::kOk));
  EXPECT_EQ(result->items.size(), 3u);

  if (serve_thread_.joinable()) serve_thread_.join();
}

TEST_F(NetE2ETest, ConnectionLimitGreetsWithUnavailable) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  Client first(MakeClientOptions());
  ASSERT_TRUE(first.Connect().ok());
  Client second(MakeClientOptions());
  const util::Status status = second.Connect();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  // The admitted connection is unaffected.
  const util::StatusOr<int64_t> id = first.Submit(TinyQuery());
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(first.AwaitResult(*id).ok());
}

// Raw-socket helper for protocol-violation tests the Client cannot express.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void SendRaw(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  // Reads one frame (5s cap); false on EOF/timeout.
  bool ReadMessage(NetMessage* out) {
    std::string payload;
    for (int spins = 0; spins < 500; ++spins) {
      if (reader_.Pop(&payload) == FrameReader::Next::kFrame) {
        return DecodeMessage(payload, out);
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      reader_.Append(buf, static_cast<size_t>(n));
    }
    return false;
  }

  // True once the server closes the connection (EOF observed).
  bool AwaitEof() {
    for (int spins = 0; spins < 500; ++spins) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameReader reader_;
};

TEST_F(NetE2ETest, VersionMismatchIsRefusedAndConnectionClosed) {
  StartServer(ServerOptions());
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  NetMessage hello;
  hello.type = MessageType::kHello;
  hello.hello.version = kProtocolVersion + 7;
  conn.SendRaw(FrameMessage(hello));
  NetMessage reply;
  ASSERT_TRUE(conn.ReadMessage(&reply));
  ASSERT_EQ(reply.type, MessageType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kVersionMismatch);
  EXPECT_TRUE(conn.AwaitEof());
  EXPECT_EQ(server_->Stats().version_mismatches, 1);
}

// The previous protocol generation's pinned bytes (net_frames_v1.bin,
// frozen when kProtocolVersion moved to 2) must stay refusable: the first
// frame is a v1 kHello, and a v2 server answers it with a version-
// mismatch error and hangs up. This is the compatibility contract the
// header documents — version-gated, not forward-compatible.
TEST_F(NetE2ETest, V1GoldenHelloIsRefused) {
  std::string v1_stream;
  ASSERT_TRUE(util::ReadFileToString(
                  std::string(CROWDTOPK_GOLDEN_DIR) + "/net_frames_v1.bin",
                  &v1_stream)
                  .ok());
  FrameReader reader;
  reader.Append(v1_stream);
  std::string payload;
  ASSERT_EQ(reader.Pop(&payload), FrameReader::Next::kFrame);
  NetMessage v1_hello;
  ASSERT_TRUE(DecodeMessage(payload, &v1_hello));
  ASSERT_EQ(v1_hello.type, MessageType::kHello);
  ASSERT_EQ(v1_hello.hello.magic, kNetMagic);
  ASSERT_LT(v1_hello.hello.version, kProtocolVersion);

  StartServer(ServerOptions());
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  conn.SendRaw(FramePayload(payload));
  NetMessage reply;
  ASSERT_TRUE(conn.ReadMessage(&reply));
  ASSERT_EQ(reply.type, MessageType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kVersionMismatch);
  EXPECT_TRUE(conn.AwaitEof());
  EXPECT_EQ(server_->Stats().version_mismatches, 1);
}

TEST_F(NetE2ETest, CorruptFrameClosesConnectionWithoutCrashing) {
  StartServer(ServerOptions());
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.connected());
    std::string frame = FrameMessage(NetMessage{});
    frame[frame.size() - 1] ^= 0x01;
    conn.SendRaw(frame);
    NetMessage reply;
    ASSERT_TRUE(conn.ReadMessage(&reply));
    ASSERT_EQ(reply.type, MessageType::kError);
    EXPECT_EQ(reply.error.code, ErrorCode::kMalformed);
    EXPECT_TRUE(conn.AwaitEof());
  }
  {
    // Oversized length prefix: also an unrecoverable stream error.
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.connected());
    util::Encoder enc;
    enc.PutU32(kMaxFramePayload + 1);
    enc.PutU32(0);
    conn.SendRaw(enc.Take());
    NetMessage reply;
    ASSERT_TRUE(conn.ReadMessage(&reply));
    ASSERT_EQ(reply.type, MessageType::kError);
    EXPECT_EQ(reply.error.code, ErrorCode::kMalformed);
    EXPECT_TRUE(conn.AwaitEof());
  }
  EXPECT_GE(server_->Stats().crc_errors, 1);
  EXPECT_GE(server_->Stats().malformed_frames, 1);

  // The server is still healthy: a well-behaved client round-trips.
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Connect().ok());
  const util::StatusOr<int64_t> id = client.Submit(TinyQuery());
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(client.AwaitResult(*id).ok());
}

TEST_F(NetE2ETest, SubmitBeforeHandshakeIsMalformed) {
  StartServer(ServerOptions());
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  NetMessage submit;
  submit.type = MessageType::kSubmitQuery;
  submit.submit = TinyQuery();
  conn.SendRaw(FrameMessage(submit));
  NetMessage reply;
  ASSERT_TRUE(conn.ReadMessage(&reply));
  ASSERT_EQ(reply.type, MessageType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kMalformed);
  EXPECT_TRUE(conn.AwaitEof());
}

}  // namespace
}  // namespace crowdtopk::net
