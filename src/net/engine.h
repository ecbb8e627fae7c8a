// Engine: the execution half of the network server.
//
// net::Server splits into two layers. The *front-end* (server.cc's poll
// loop) owns sockets, framing, handshakes, backpressure, and drain
// sequencing; the *engine* owns query execution. This interface is the
// seam between them: the front-end validates and forwards submissions,
// the engine answers with Completions it posts back for delivery. The
// implementation is shard::RouterEngine (src/shard): scatter across K
// engine shards with failover and cross-shard cache sync, K = 1 for a
// single-process server. The interface keeps net free of a dependency on
// shard, and lets tests and benchmarks wrap the engine.
//
// Threading contract: Submit/State/Cancel/BeginDrain/AbortQueued/
// TakeCompletions/Drained are called on the network thread; the engine
// runs execution on its own thread(s) and calls the wake function it was
// constructed with after posting completions, so the poll loop re-checks
// TakeCompletions. All methods must be safe against that internal thread.

#ifndef CROWDTOPK_NET_ENGINE_H_
#define CROWDTOPK_NET_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "util/status.h"

namespace crowdtopk::net {

// Terminal outcome of one accepted submission, addressed to the
// connection that submitted it.
struct Completion {
  int64_t conn_id = 0;
  int64_t query_id = 0;
  // Rejected at admission: deliver an error frame instead of a result.
  bool send_error = false;
  ErrorCode error_code = ErrorCode::kInternal;
  std::string error_message;
  Result result;
};

class Engine {
 public:
  virtual ~Engine() = default;

  // Validates and queues one submission; returns the assigned query id.
  // Called on the network thread.
  virtual util::StatusOr<int64_t> Submit(int64_t conn_id,
                                         const SubmitQuery& spec) = 0;

  // Where `query_id` is in its lifecycle.
  virtual QueryState State(int64_t query_id) const = 0;

  // Removes a still-queued query. On success fills the submitter's conn id
  // so the server can clear its pending bookkeeping.
  virtual bool Cancel(int64_t query_id, int64_t* submitter_conn) = 0;

  // Stops accepting work and lets the queue run dry.
  virtual void BeginDrain() = 0;

  // Drain-deadline path: reject everything still waiting for a batch. The
  // batch in flight (if any) always completes.
  virtual void AbortQueued() = 0;

  virtual std::vector<Completion> TakeCompletions() = 0;

  // True once a drain has consumed everything: no queued or running
  // queries remain and no completions await delivery.
  virtual bool Drained() const = 0;

  virtual int64_t queued() const = 0;
  virtual int64_t batches() const = 0;

  // Upstream net::Client retry/redial totals (StatsReply::client_retries /
  // client_redials). Nonzero only for engines that dial other servers.
  virtual int64_t upstream_retries() const { return 0; }
  virtual int64_t upstream_redials() const { return 0; }
};

}  // namespace crowdtopk::net

#endif  // CROWDTOPK_NET_ENGINE_H_
