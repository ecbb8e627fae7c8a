#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace crowdtopk::net {
namespace {

bool SetNonBlocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

// True for the failures a redial might fix: the server refused with
// UNAVAILABLE, or the connection died under us.
bool Retryable(const util::Status& status) {
  return status.code() == util::StatusCode::kUnavailable;
}

}  // namespace

Client::Client(const ClientOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : util::WallClock::Get()) {}

int Client::PollWaitMs(int64_t left) const {
  if (options_.clock != nullptr) {
    return static_cast<int>(std::min<int64_t>(left, 10));
  }
  return static_cast<int>(left);
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader();
}

util::Status Client::Dial() {
  Close();
  if (++dials_ > 1) ++redials_;
  if (options_.port <= 0) {
    return util::Status::InvalidArgument(
        "client port must be the server's bound port (servers bind "
        "ephemeral ports by default and print the assigned one)");
  }
  if (options_.port > 65535) {
    return util::Status::InvalidArgument(
        "client port must be <= 65535, got " + std::to_string(options_.port));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return util::Status::Internal(std::string("socket: ") +
                                  std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("unparseable host: " + options_.host);
  }
  // Non-blocking connect so the dial honours connect_timeout_ms; the
  // socket goes back to blocking afterwards (reads are paced by poll).
  if (!SetNonBlocking(fd, true)) {
    ::close(fd);
    return util::Status::Internal("fcntl(O_NONBLOCK) failed");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      const int err = errno;
      ::close(fd);
      return util::Status::Unavailable(std::string("connect: ") +
                                       std::strerror(err));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int rc =
        ::poll(&pfd, 1, static_cast<int>(options_.connect_timeout_ms));
    if (rc <= 0) {
      ::close(fd);
      return util::Status::Unavailable("connect timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return util::Status::Unavailable(std::string("connect: ") +
                                       std::strerror(err));
    }
  }
  if (!SetNonBlocking(fd, false)) {
    ::close(fd);
    return util::Status::Internal("fcntl(~O_NONBLOCK) failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  reader_ = FrameReader();
  return util::Status::Ok();
}

util::Status Client::Handshake() {
  NetMessage hello;
  hello.type = MessageType::kHello;
  CROWDTOPK_RETURN_IF_ERROR(SendMessage(hello));
  const int64_t deadline = NowMs() + options_.request_timeout_ms;
  util::StatusOr<NetMessage> ack = ReadUntil(MessageType::kHelloAck, deadline);
  if (!ack.ok()) return ack.status();
  if (ack->hello_ack.version != kProtocolVersion) {
    Close();
    return util::Status::FailedPrecondition(
        "server speaks protocol version " +
        std::to_string(ack->hello_ack.version));
  }
  return util::Status::Ok();
}

util::Status Client::Connect() {
  util::Status status = util::Status::Ok();
  for (int64_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      clock_->SleepMillis(options_.retry_backoff_ms);
    }
    status = Dial();
    if (status.ok()) status = Handshake();
    if (status.ok() || !Retryable(status)) return status;
    Close();
  }
  return status;
}

util::Status Client::SendMessage(const NetMessage& message) {
  if (fd_ < 0) return util::Status::FailedPrecondition("not connected");
  const std::string frame = FrameMessage(message);
  size_t sent = 0;
  const int64_t deadline = NowMs() + options_.request_timeout_ms;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int64_t left = deadline - NowMs();
      if (left <= 0) return util::Status::Internal("send timed out");
      pollfd pfd{fd_, POLLOUT, 0};
      ::poll(&pfd, 1, PollWaitMs(left));
      continue;
    }
    Close();
    return util::Status::Unavailable(std::string("send: ") +
                                     std::strerror(errno));
  }
  return util::Status::Ok();
}

util::Status Client::ReadMore(int64_t deadline_ms) {
  const int64_t left = deadline_ms - NowMs();
  if (left <= 0) return util::Status::Internal("timed out waiting for reply");
  pollfd pfd{fd_, POLLIN, 0};
  const int rc = ::poll(&pfd, 1, PollWaitMs(left));
  if (rc < 0 && errno == EINTR) return util::Status::Ok();
  // An injected clock's deadline has not necessarily passed when a short
  // wall tick elapses; loop so the caller re-checks it against the clock.
  if (rc == 0 && options_.clock != nullptr) return util::Status::Ok();
  if (rc <= 0) return util::Status::Internal("timed out waiting for reply");
  char buf[4096];
  const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
  if (n > 0) {
    reader_.Append(buf, static_cast<size_t>(n));
    return util::Status::Ok();
  }
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return util::Status::Ok();
  }
  Close();
  if (n == 0) return util::Status::Unavailable("server closed the connection");
  return util::Status::Unavailable(std::string("recv: ") +
                                   std::strerror(errno));
}

util::StatusOr<NetMessage> Client::ReadUntil(MessageType want,
                                             int64_t deadline_ms) {
  if (fd_ < 0) return util::Status::FailedPrecondition("not connected");
  std::string payload;
  while (true) {
    switch (reader_.Pop(&payload)) {
      case FrameReader::Next::kFrame: {
        NetMessage m;
        if (!DecodeMessage(payload, &m)) {
          Close();
          return util::Status::InvalidArgument(
              "undecodable frame from server");
        }
        if (m.type == want && want != MessageType::kResult) return m;
        if (m.type == MessageType::kResult) {
          if (want == MessageType::kResult) return m;
          // A result for some query arrived while we were waiting for a
          // different reply; keep it for AwaitResult.
          pending_results_[m.result.query_id] = std::move(m.result);
          continue;
        }
        if (m.type == MessageType::kError) {
          return MapErrorCode(m.error.code, m.error.message);
        }
        Close();
        return util::Status::Internal("unexpected message from server");
      }
      case FrameReader::Next::kNeedMore:
        CROWDTOPK_RETURN_IF_ERROR(ReadMore(deadline_ms));
        break;
      case FrameReader::Next::kCorrupt:
        Close();
        return util::Status::InvalidArgument("corrupt frame from server");
      case FrameReader::Next::kOversized:
        Close();
        return util::Status::InvalidArgument("oversized frame from server");
    }
  }
}

util::StatusOr<int64_t> Client::Submit(const SubmitQuery& query) {
  util::Status status = util::Status::Ok();
  for (int64_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      clock_->SleepMillis(options_.retry_backoff_ms);
    }
    if (fd_ < 0) {
      status = Dial();
      if (status.ok()) status = Handshake();
      if (!status.ok()) {
        if (Retryable(status)) continue;
        return status;
      }
    }
    NetMessage m;
    m.type = MessageType::kSubmitQuery;
    m.submit = query;
    status = SendMessage(m);
    if (!status.ok()) {
      if (Retryable(status)) continue;
      return status;
    }
    util::StatusOr<NetMessage> ack = ReadUntil(
        MessageType::kSubmitAck, NowMs() + options_.request_timeout_ms);
    if (ack.ok()) return ack->submit_ack.query_id;
    status = ack.status();
    if (!Retryable(status)) return status;
  }
  return status;
}

util::StatusOr<Result> Client::AwaitResult(int64_t query_id) {
  const auto it = pending_results_.find(query_id);
  if (it != pending_results_.end()) {
    Result r = std::move(it->second);
    pending_results_.erase(it);
    return r;
  }
  const int64_t deadline = NowMs() + options_.result_timeout_ms;
  while (true) {
    util::StatusOr<NetMessage> m = ReadUntil(MessageType::kResult, deadline);
    if (!m.ok()) return m.status();
    if (m->result.query_id == query_id) return std::move(m->result);
    pending_results_[m->result.query_id] = std::move(m->result);
  }
}

util::StatusOr<QueryState> Client::GetQueryState(int64_t query_id) {
  NetMessage m;
  m.type = MessageType::kStatusRequest;
  m.status_request.query_id = query_id;
  CROWDTOPK_RETURN_IF_ERROR(SendMessage(m));
  util::StatusOr<NetMessage> reply = ReadUntil(
      MessageType::kStatusReply, NowMs() + options_.request_timeout_ms);
  if (!reply.ok()) return reply.status();
  return reply->status_reply.state;
}

util::StatusOr<bool> Client::Cancel(int64_t query_id) {
  NetMessage m;
  m.type = MessageType::kCancel;
  m.cancel.query_id = query_id;
  CROWDTOPK_RETURN_IF_ERROR(SendMessage(m));
  util::StatusOr<NetMessage> reply = ReadUntil(
      MessageType::kCancelAck, NowMs() + options_.request_timeout_ms);
  if (!reply.ok()) return reply.status();
  return reply->cancel_ack.cancelled;
}

util::StatusOr<StatsReply> Client::Stats() {
  NetMessage m;
  m.type = MessageType::kStatsRequest;
  CROWDTOPK_RETURN_IF_ERROR(SendMessage(m));
  util::StatusOr<NetMessage> reply = ReadUntil(
      MessageType::kStatsReply, NowMs() + options_.request_timeout_ms);
  if (!reply.ok()) return reply.status();
  return reply->stats_reply;
}

}  // namespace crowdtopk::net
