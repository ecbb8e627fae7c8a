// Blocking client for the crowdtopk network protocol (docs/NETWORK.md).
//
// One Client owns one TCP connection and is meant to be used from one
// thread. Every call is synchronous: Connect dials and completes the
// version handshake; Submit sends a query and returns its server-assigned
// id as soon as the kSubmitAck arrives; AwaitResult blocks until the
// server pushes the kResult frame for that id. Results that arrive while
// the client is waiting for something else (a status reply, a different
// query's result) are stashed and handed out when asked for.
//
// Timeouts and retries: connect_timeout_ms bounds the dial, and
// request_timeout_ms bounds each wait for a reply (AwaitResult uses the
// larger result_timeout_ms, since a query may legitimately take a while).
// Connect and Submit transparently retry up to max_retries times when the
// server answers UNAVAILABLE (it is draining or at capacity) or hangs up
// before the reply — each retry redials, so a freshly restarted server is
// picked up. All other errors surface immediately.

#ifndef CROWDTOPK_NET_CLIENT_H_
#define CROWDTOPK_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>

#include "net/protocol.h"
#include "util/clock.h"
#include "util/status.h"

namespace crowdtopk::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  // Must be set to the server's bound port (Server::port(), or the
  // "listening on 127.0.0.1:<port>" line the CLI prints — servers bind
  // ephemeral ports by default). Connect refuses a port outside
  // [1, 65535].
  int64_t port = 0;
  int64_t connect_timeout_ms = 5000;
  // Per-reply wait for request/reply calls (Submit, QueryStatus, Cancel,
  // Stats).
  int64_t request_timeout_ms = 30000;
  // Wait bound for AwaitResult; queries queue behind whole batches, so
  // this is deliberately larger than request_timeout_ms.
  int64_t result_timeout_ms = 120000;
  // Bounded retries on UNAVAILABLE (and on the server hanging up before a
  // reply); 0 disables retrying.
  int64_t max_retries = 3;
  int64_t retry_backoff_ms = 50;
  // Time source for deadlines and retry backoff. Null = wall clock; the
  // simulation harness injects a util::SimClock (backoff then advances
  // simulated time instead of sleeping).
  const util::Clock* clock = nullptr;
};

class Client {
 public:
  explicit Client(const ClientOptions& options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Dials host:port and runs the version handshake. Safe to call again
  // after a failure or Close; an existing connection is torn down first.
  util::Status Connect();

  bool connected() const { return fd_ >= 0; }
  void Close();

  // Submits one query; returns the server-assigned query id. The result
  // arrives later via AwaitResult.
  util::StatusOr<int64_t> Submit(const SubmitQuery& query);

  // Blocks until the result for `query_id` arrives (or result_timeout_ms
  // elapses). Never retries: the submitting connection is the only place
  // the result will ever be pushed.
  util::StatusOr<Result> AwaitResult(int64_t query_id);

  // Where `query_id` is in its lifecycle, per the server.
  util::StatusOr<QueryState> GetQueryState(int64_t query_id);

  // Asks the server to drop a still-queued query. Returns true when the
  // query was removed, false when it was already running or done.
  util::StatusOr<bool> Cancel(int64_t query_id);

  // Live server counters.
  util::StatusOr<StatsReply> Stats();

  // Lifetime retry traffic of this client: `retries` counts backed-off
  // re-attempts inside Connect/Submit (attempt > 0), `redials` counts TCP
  // dials beyond the first. A router surfaces the sums over its upstream
  // clients in StatsReply::client_retries / client_redials.
  int64_t retries() const { return retries_; }
  int64_t redials() const { return redials_; }

 private:
  util::Status Dial();
  util::Status Handshake();
  util::Status SendMessage(const NetMessage& message);
  // Reads frames until one of `want` arrives, stashing kResult frames for
  // other queries. deadline_ms is absolute on the client's clock.
  util::StatusOr<NetMessage> ReadUntil(MessageType want, int64_t deadline_ms);
  util::Status ReadMore(int64_t deadline_ms);
  int64_t NowMs() const { return clock_->NowMillis(); }
  // Wall-time bound for one poll(2) wait toward a deadline `left` ms away
  // on the client's clock: `left` itself on the wall clock, a short tick
  // under an injected clock (whose deadlines only move when the test
  // advances them).
  int PollWaitMs(int64_t left) const;

  ClientOptions options_;
  const util::Clock* clock_;
  int fd_ = -1;
  FrameReader reader_;
  std::map<int64_t, Result> pending_results_;
  int64_t retries_ = 0;
  int64_t redials_ = 0;
  int64_t dials_ = 0;
};

}  // namespace crowdtopk::net

#endif  // CROWDTOPK_NET_CLIENT_H_
