#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "baselines/registry.h"
#include "data/generators.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"

namespace crowdtopk::net {
namespace {

// Backpressure watermarks on a connection's write buffer: past kWriteHigh
// the connection stops being read until the buffer drains; past kWriteMax
// it is closed as a slow consumer.
constexpr size_t kWriteHigh = 1u << 20;
constexpr size_t kWriteMax = 8u << 20;

}  // namespace

DatasetFactory DefaultDatasetFactory() { return data::MakeByName; }

AlgorithmFactory DefaultAlgorithmFactory() { return baselines::MakeAlgorithm; }

// ----- Server::Impl -------------------------------------------------------

struct Server::Connection {
  int fd = -1;
  int64_t id = 0;
  FrameReader reader;
  std::string wbuf;
  size_t woff = 0;
  bool handshaken = false;
  bool close_after_flush = false;
  int64_t last_activity_ms = 0;
  std::set<int64_t> pending;  // submitted query ids, result undelivered

  int64_t frames_in = 0;
  int64_t frames_out = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;

  size_t unflushed() const { return wbuf.size() - woff; }
};

class Server::Impl {
 public:
  explicit Impl(const ServerOptions& options)
      : options_(options),
        clock_(options.clock != nullptr ? options.clock
                                        : util::WallClock::Get()) {}

  ~Impl() {
    engine_.reset();  // joins the engine thread before fds close
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
    for (auto& [id, conn] : conns_) ::close(conn.fd);
  }

  util::Status Start(int* bound_port) {
    if (options_.engine_factory == nullptr) {
      return util::Status::InvalidArgument(
          "ServerOptions::engine_factory is required");
    }
    if (::pipe(wake_pipe_) != 0) {
      return util::Status::Internal("pipe: " +
                                    std::string(std::strerror(errno)));
    }
    SetNonBlocking(wake_pipe_[0]);
    SetNonBlocking(wake_pipe_[1]);

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) {
      return util::Status::Internal("socket: " +
                                    std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return util::Status::Internal("bind 127.0.0.1:" +
                                    std::to_string(options_.port) + ": " +
                                    std::strerror(errno));
    }
    if (::listen(listen_fd_, 128) != 0) {
      return util::Status::Internal("listen: " +
                                    std::string(std::strerror(errno)));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    *bound_port = ntohs(addr.sin_port);

    const int wake_fd = wake_pipe_[1];
    std::function<void()> wake = [wake_fd] {
      const char byte = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
    };
    engine_ = options_.engine_factory(options_, std::move(wake));
    return util::Status::Ok();
  }

  void RequestDrain() {
    // Async-signal-safe: an atomic store plus a pipe write, nothing else.
    drain_requested_.store(true, std::memory_order_release);
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }

  void Serve() {
    std::vector<pollfd> fds;
    std::vector<int64_t> owners;  // conn id per pollfd; -1 listen, -2 pipe
    while (true) {
      if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
        draining_ = true;
        draining_pub_.store(true, std::memory_order_release);
        drain_deadline_ms_ = NowMs() + options_.drain_timeout_ms;
        engine_->BeginDrain();
      }
      DeliverCompletions();
      if (draining_) {
        if (NowMs() >= drain_deadline_ms_ && !drain_aborted_) {
          drain_aborted_ = true;
          engine_->AbortQueued();
          DeliverCompletions();
        }
        if (engine_->Drained()) {
          // Everything accepted has been answered; close connections as
          // soon as their replies are flushed (immediately when past the
          // drain deadline).
          std::vector<int64_t> closing;
          for (auto& [id, conn] : conns_) {
            if (conn.unflushed() == 0 || NowMs() >= drain_deadline_ms_) {
              closing.push_back(id);
            } else {
              conn.close_after_flush = true;
            }
          }
          for (const int64_t id : closing) CloseConn(id);
          if (conns_.empty()) break;
        }
      }

      fds.clear();
      owners.clear();
      fds.push_back({wake_pipe_[0], POLLIN, 0});
      owners.push_back(-2);
      if (!draining_) {
        fds.push_back({listen_fd_, POLLIN, 0});
        owners.push_back(-1);
      }
      for (auto& [id, conn] : conns_) {
        short events = 0;
        // Backpressure: stop reading a connection whose replies are not
        // being consumed.
        if (!conn.close_after_flush && conn.unflushed() < kWriteHigh) {
          events |= POLLIN;
        }
        if (conn.unflushed() > 0) events |= POLLOUT;
        fds.push_back({conn.fd, events, 0});
        owners.push_back(id);
      }

      ::poll(fds.data(), fds.size(), PollTimeoutMs());

      for (size_t i = 0; i < fds.size(); ++i) {
        const short revents = fds[i].revents;
        if (revents == 0) continue;
        if (owners[i] == -2) {
          char buf[256];
          while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
          }
        } else if (owners[i] == -1) {
          AcceptPending();
        } else {
          HandleConnEvents(owners[i], revents);
        }
      }
      DeliverCompletions();
      SweepIdle();
      // Connections whose goodbye is already flushed (or was dropped on
      // write-buffer overflow) produce no poll events; close them here.
      std::vector<int64_t> flushed;
      for (const auto& [id, conn] : conns_) {
        if (conn.close_after_flush && conn.unflushed() == 0) {
          flushed.push_back(id);
        }
      }
      for (const int64_t id : flushed) CloseConn(id);
    }
    DumpTrace();
  }

  StatsReply Stats() const {
    StatsReply s;
    s.draining = draining_pub_.load(std::memory_order_acquire);
    s.active_connections = active_conns_.load(std::memory_order_relaxed);
    s.accepted_connections = accepted_.load(std::memory_order_relaxed);
    s.rejected_connections = rejected_conns_.load(std::memory_order_relaxed);
    s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
    s.frames_in = frames_in_.load(std::memory_order_relaxed);
    s.frames_out = frames_out_.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    s.crc_errors = crc_errors_.load(std::memory_order_relaxed);
    s.malformed_frames = malformed_.load(std::memory_order_relaxed);
    s.version_mismatches = version_mismatch_.load(std::memory_order_relaxed);
    s.queries_submitted = submitted_.load(std::memory_order_relaxed);
    s.queries_completed = completed_.load(std::memory_order_relaxed);
    s.queries_rejected = rejected_queries_.load(std::memory_order_relaxed);
    s.queries_cancelled = cancelled_.load(std::memory_order_relaxed);
    s.batches = engine_ ? engine_->batches() : 0;
    s.client_retries = engine_ ? engine_->upstream_retries() : 0;
    s.client_redials = engine_ ? engine_->upstream_redials() : 0;
    return s;
  }

 private:
  static void SetNonBlocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }

  int64_t NowMs() const { return clock_->NowMillis(); }

  int PollTimeoutMs() const {
    // Under an injected (simulated) clock, deadlines move only when the
    // test advances them; wake on a short wall tick so the loop observes
    // those advances instead of sleeping out a wall-time translation of a
    // simulated deadline.
    int64_t timeout = options_.clock != nullptr ? 10 : 200;
    const int64_t now = NowMs();
    if (options_.idle_timeout_ms > 0) {
      for (const auto& [id, conn] : conns_) {
        if (!conn.pending.empty()) continue;
        const int64_t remain =
            conn.last_activity_ms + options_.idle_timeout_ms - now;
        timeout = std::min(timeout, std::max<int64_t>(remain, 0));
      }
    }
    if (draining_ && !drain_aborted_) {
      // Past the deadline the queue is already aborted; the only thing
      // left to wait for is the in-flight batch, which wakes us via the
      // pipe — no need to spin on an expired deadline.
      timeout = std::min(
          timeout, std::max<int64_t>(drain_deadline_ms_ - now, 0));
    }
    return static_cast<int>(std::min<int64_t>(timeout, 1000));
  }

  void AcceptPending() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      accepted_.fetch_add(1, std::memory_order_relaxed);
      Connection& conn = conns_[next_conn_id_];
      conn.fd = fd;
      conn.id = next_conn_id_++;
      conn.last_activity_ms = NowMs();
      active_conns_.store(static_cast<int64_t>(conns_.size()),
                          std::memory_order_relaxed);
      if (static_cast<int64_t>(conns_.size()) > options_.max_connections) {
        // Bounded acceptor: greet with UNAVAILABLE so the client can back
        // off instead of seeing a silent RST.
        rejected_conns_.fetch_add(1, std::memory_order_relaxed);
        QueueMessage(&conn, MakeError(ErrorCode::kUnavailable, -1,
                                      "connection limit reached"));
        conn.close_after_flush = true;
      }
    }
  }

  void HandleConnEvents(int64_t conn_id, short revents) {
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    Connection& conn = it->second;
    if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
      CloseConn(conn_id);
      return;
    }
    if (revents & POLLIN) {
      if (!ReadFrom(&conn)) {
        CloseConn(conn_id);
        return;
      }
    }
    if ((revents & POLLOUT) || conn.unflushed() > 0) {
      if (!FlushWrites(&conn)) {
        CloseConn(conn_id);
        return;
      }
    }
    if (conn.close_after_flush && conn.unflushed() == 0) {
      CloseConn(conn_id);
    }
  }

  // False on a fatal connection error (peer closed, recv failure).
  bool ReadFrom(Connection* conn) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->last_activity_ms = NowMs();
        conn->bytes_in += n;
        bytes_in_.fetch_add(n, std::memory_order_relaxed);
        conn->reader.Append(buf, static_cast<size_t>(n));
        if (!DrainFrames(conn)) return true;  // error frame queued; flush
        if (static_cast<size_t>(n) < sizeof(buf)) return true;
        continue;
      }
      if (n == 0) return false;  // orderly shutdown by the peer
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
  }

  // Extracts every complete frame. False when the stream turned out to be
  // corrupt (an error frame has been queued and the connection marked).
  bool DrainFrames(Connection* conn) {
    std::string payload;
    for (;;) {
      switch (conn->reader.Pop(&payload)) {
        case FrameReader::Next::kFrame:
          ++conn->frames_in;
          frames_in_.fetch_add(1, std::memory_order_relaxed);
          HandlePayload(conn, payload);
          if (conn->close_after_flush) return false;
          continue;
        case FrameReader::Next::kNeedMore:
          return true;
        case FrameReader::Next::kCorrupt:
          crc_errors_.fetch_add(1, std::memory_order_relaxed);
          QueueMessage(conn, MakeError(ErrorCode::kMalformed, -1,
                                       "frame checksum mismatch"));
          conn->close_after_flush = true;
          return false;
        case FrameReader::Next::kOversized:
          malformed_.fetch_add(1, std::memory_order_relaxed);
          QueueMessage(conn, MakeError(ErrorCode::kMalformed, -1,
                                       "frame exceeds maximum payload"));
          conn->close_after_flush = true;
          return false;
      }
    }
  }

  void HandlePayload(Connection* conn, const std::string& payload) {
    NetMessage m;
    if (!DecodeMessage(payload, &m)) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      QueueMessage(conn, MakeError(ErrorCode::kMalformed, -1,
                                   "undecodable message"));
      conn->close_after_flush = true;
      return;
    }
    if (!conn->handshaken) {
      if (m.type != MessageType::kHello || m.hello.magic != kNetMagic) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        QueueMessage(conn, MakeError(ErrorCode::kMalformed, -1,
                                     "expected hello frame"));
        conn->close_after_flush = true;
        return;
      }
      if (m.hello.version != kProtocolVersion) {
        version_mismatch_.fetch_add(1, std::memory_order_relaxed);
        QueueMessage(
            conn,
            MakeError(ErrorCode::kVersionMismatch, -1,
                      "server speaks protocol version " +
                          std::to_string(kProtocolVersion) + ", client sent " +
                          std::to_string(m.hello.version)));
        conn->close_after_flush = true;
        return;
      }
      conn->handshaken = true;
      NetMessage ack;
      ack.type = MessageType::kHelloAck;
      QueueMessage(conn, ack);
      return;
    }
    switch (m.type) {
      case MessageType::kSubmitQuery:
        HandleSubmit(conn, m.submit);
        return;
      case MessageType::kStatusRequest: {
        NetMessage reply;
        reply.type = MessageType::kStatusReply;
        reply.status_reply.query_id = m.status_request.query_id;
        reply.status_reply.state = engine_->State(m.status_request.query_id);
        QueueMessage(conn, reply);
        return;
      }
      case MessageType::kCancel: {
        int64_t submitter = -1;
        const bool cancelled = engine_->Cancel(m.cancel.query_id, &submitter);
        if (cancelled) {
          cancelled_.fetch_add(1, std::memory_order_relaxed);
          const auto sit = conns_.find(submitter);
          if (sit != conns_.end()) {
            sit->second.pending.erase(m.cancel.query_id);
          }
        }
        NetMessage reply;
        reply.type = MessageType::kCancelAck;
        reply.cancel_ack.query_id = m.cancel.query_id;
        reply.cancel_ack.cancelled = cancelled;
        QueueMessage(conn, reply);
        return;
      }
      case MessageType::kStatsRequest: {
        NetMessage reply;
        reply.type = MessageType::kStatsReply;
        reply.stats_reply = Stats();
        QueueMessage(conn, reply);
        return;
      }
      default:
        // A decodable message the client has no business sending
        // (server-to-client types, a second hello).
        malformed_.fetch_add(1, std::memory_order_relaxed);
        QueueMessage(conn, MakeError(ErrorCode::kMalformed, -1,
                                     "unexpected message type"));
        conn->close_after_flush = true;
        return;
    }
  }

  void HandleSubmit(Connection* conn, const SubmitQuery& spec) {
    if (draining_) {
      rejected_queries_.fetch_add(1, std::memory_order_relaxed);
      QueueMessage(conn, MakeError(ErrorCode::kUnavailable, -1,
                                   "server is draining"));
      return;
    }
    const util::StatusOr<int64_t> id = engine_->Submit(conn->id, spec);
    if (!id.ok()) {
      ErrorCode code = ErrorCode::kInvalidArgument;
      if (id.status().code() == util::StatusCode::kResourceExhausted) {
        code = ErrorCode::kQueueFull;
        rejected_queries_.fetch_add(1, std::memory_order_relaxed);
      } else if (id.status().code() == util::StatusCode::kUnavailable) {
        code = ErrorCode::kUnavailable;
        rejected_queries_.fetch_add(1, std::memory_order_relaxed);
      }
      QueueMessage(conn, MakeError(code, -1, id.status().message()));
      return;
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    conn->pending.insert(*id);
    NetMessage ack;
    ack.type = MessageType::kSubmitAck;
    ack.submit_ack.query_id = *id;
    QueueMessage(conn, ack);
  }

  void DeliverCompletions() {
    for (Completion& c : engine_->TakeCompletions()) {
      const auto it = conns_.find(c.conn_id);
      if (c.send_error) {
        rejected_queries_.fetch_add(1, std::memory_order_relaxed);
      } else {
        completed_.fetch_add(1, std::memory_order_relaxed);
      }
      if (it == conns_.end()) continue;  // submitter went away; drop
      it->second.pending.erase(c.query_id);
      if (c.send_error) {
        QueueMessage(&it->second,
                     MakeError(c.error_code, c.query_id, c.error_message));
      } else {
        NetMessage m;
        m.type = MessageType::kResult;
        m.result = std::move(c.result);
        QueueMessage(&it->second, m);
      }
      if (it->second.unflushed() > 0) FlushWrites(&it->second);
    }
  }

  void QueueMessage(Connection* conn, const NetMessage& message) {
    const std::string frame = FrameMessage(message);
    conn->wbuf.append(frame);
    ++conn->frames_out;
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    if (conn->wbuf.size() - conn->woff > kWriteMax) {
      // Slow consumer: the peer is not reading replies. Nothing sane to
      // send; drop the connection.
      conn->close_after_flush = true;
      conn->wbuf.clear();
      conn->woff = 0;
    }
  }

  // False on a fatal send error.
  bool FlushWrites(Connection* conn) {
    // Read before the bytes leave: the peer may act on them (advance a
    // simulated clock, say) before this thread runs again, and the
    // activity stamp must not postdate that.
    const int64_t now = NowMs();
    while (conn->woff < conn->wbuf.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->wbuf.data() + conn->woff,
                 conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
      if (n > 0) {
        conn->woff += static_cast<size_t>(n);
        conn->bytes_out += n;
        bytes_out_.fetch_add(n, std::memory_order_relaxed);
        conn->last_activity_ms = now;
        continue;
      }
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    conn->wbuf.clear();
    conn->woff = 0;
    return true;
  }

  void SweepIdle() {
    if (options_.idle_timeout_ms <= 0) return;
    const int64_t now = NowMs();
    std::vector<int64_t> idle;
    for (const auto& [id, conn] : conns_) {
      // A connection waiting on a query result is working, not idle.
      if (!conn.pending.empty()) continue;
      if (now - conn.last_activity_ms >= options_.idle_timeout_ms) {
        idle.push_back(id);
      }
    }
    for (const int64_t id : idle) {
      idle_closed_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(id);
    }
  }

  void CloseConn(int64_t conn_id) {
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    const Connection& conn = it->second;
    closed_conn_stats_.push_back({conn.id, conn.frames_in, conn.frames_out,
                                  conn.bytes_in, conn.bytes_out,
                                  static_cast<int64_t>(conn.pending.size())});
    ::close(conn.fd);
    conns_.erase(it);
    active_conns_.store(static_cast<int64_t>(conns_.size()),
                        std::memory_order_relaxed);
  }

  // Writes the net/* counter trace (aggregate plus one block per closed
  // connection) once the loop exits. docs/OBSERVABILITY.md naming.
  void DumpTrace() {
    if (options_.trace_dir.empty()) return;
    telemetry::TraceRecorder recorder;
    const StatsReply s = Stats();
    const auto record = [&recorder](const std::string& name, int64_t value) {
      recorder.RecordCounter(name, static_cast<double>(value));
    };
    record("net/accepted_connections", s.accepted_connections);
    record("net/rejected_connections", s.rejected_connections);
    record("net/idle_closed", s.idle_closed);
    record("net/frames_in", s.frames_in);
    record("net/frames_out", s.frames_out);
    record("net/bytes_in", s.bytes_in);
    record("net/bytes_out", s.bytes_out);
    record("net/crc_errors", s.crc_errors);
    record("net/malformed_frames", s.malformed_frames);
    record("net/version_mismatches", s.version_mismatches);
    record("net/queries_submitted", s.queries_submitted);
    record("net/queries_completed", s.queries_completed);
    record("net/queries_rejected", s.queries_rejected);
    record("net/queries_cancelled", s.queries_cancelled);
    record("net/batches", s.batches);
    record("net/client_retries", s.client_retries);
    record("net/client_redials", s.client_redials);
    for (const ClosedConnStats& c : closed_conn_stats_) {
      const std::string prefix = "net/conn" + std::to_string(c.id) + "/";
      record(prefix + "frames_in", c.frames_in);
      record(prefix + "frames_out", c.frames_out);
      record(prefix + "bytes_in", c.bytes_in);
      record(prefix + "bytes_out", c.bytes_out);
      record(prefix + "undelivered", c.undelivered);
    }
    const util::Status status = telemetry::WriteJsonlFile(
        recorder.events(), options_.trace_dir + "/net_server.trace.jsonl");
    if (!status.ok()) {
      std::fprintf(stderr, "net trace: %s\n", status.ToString().c_str());
    }
  }

  struct ClosedConnStats {
    int64_t id = 0;
    int64_t frames_in = 0;
    int64_t frames_out = 0;
    int64_t bytes_in = 0;
    int64_t bytes_out = 0;
    int64_t undelivered = 0;
  };

  const ServerOptions options_;
  const util::Clock* clock_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::unique_ptr<Engine> engine_;

  // Network-thread state.
  std::map<int64_t, Connection> conns_;
  int64_t next_conn_id_ = 0;
  bool draining_ = false;
  bool drain_aborted_ = false;
  int64_t drain_deadline_ms_ = 0;
  std::vector<ClosedConnStats> closed_conn_stats_;

  // Cross-thread-visible state.
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> draining_pub_{false};
  std::atomic<int64_t> active_conns_{0};
  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> rejected_conns_{0};
  std::atomic<int64_t> idle_closed_{0};
  std::atomic<int64_t> frames_in_{0};
  std::atomic<int64_t> frames_out_{0};
  std::atomic<int64_t> bytes_in_{0};
  std::atomic<int64_t> bytes_out_{0};
  std::atomic<int64_t> crc_errors_{0};
  std::atomic<int64_t> malformed_{0};
  std::atomic<int64_t> version_mismatch_{0};
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> rejected_queries_{0};
  std::atomic<int64_t> cancelled_{0};
};

Server::Server(const ServerOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

Server::~Server() = default;

util::Status Server::Start() { return impl_->Start(&port_); }

void Server::Serve() { impl_->Serve(); }

void Server::RequestDrain() { impl_->RequestDrain(); }

StatsReply Server::Stats() const { return impl_->Stats(); }

}  // namespace crowdtopk::net
