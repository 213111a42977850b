// Resilient cwatpg.rpc/1 client: retry/backoff with deterministic jitter
// and idempotent resubmission keyed by request id.
//
// The server's admission control answers `overloaded` instead of queueing
// unboundedly; this client is the other half of that contract. A job
// rejected with `overloaded` is resubmitted — after exponential backoff
// with seeded jitter, so a thundering herd of clients decorrelates but a
// test replays byte-identically — under the SAME request id. The id is
// what makes resubmission idempotent: while a job with that id is live,
// the server rejects a duplicate admission ("already names a live job"),
// which this client recognizes and absorbs as an ack that its earlier
// submission survived; the one terminal response still arrives exactly
// once. A client can therefore always err on the side of resending.
//
// The client is synchronous and single-owner: one thread calls it, it
// reads frames inline and routes them — terminal responses for jobs it
// has in flight are buffered until await()ed, overloaded rejections
// trigger the retry loop wherever they interleave. This mirrors how the
// Python smoke client works, but with the retry discipline the chaos
// bench needs.
//
// Thread-safe: NO (by design — one owner). The underlying Transport may
// of course be shared with a server on the other end.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "obs/json.hpp"
#include "svc/transport.hpp"
#include "util/rng.hpp"

namespace cwatpg::svc {

struct ClientOptions {
  /// Total submissions per job (first try + retries). When the last
  /// attempt is also rejected, the rejection becomes the job's terminal.
  std::size_t max_attempts = 6;
  /// Seed for the jitter RNG: backoff sleeps follow BackoffPolicy{}
  /// (svc/supervisor.hpp), base * 2^k capped at the maximum, scaled by a
  /// factor drawn from [0.5, 1.0). Fixed seed => replayable schedule.
  std::uint64_t jitter_seed = 0x7e577e57;
  /// Injectable sleep (tests pass a recorder; default really sleeps).
  std::function<void(double)> sleep_fn;
  /// Bound each blocking read on the transport (0 = wait forever). Only
  /// transports that support timeouts honor it: FdTransport (sockets,
  /// pipes, stdio, the byte duplex) and the make_duplex() ends do — see
  /// Transport::set_read_timeout. A timeout surfaces exactly like a torn
  /// session: the await returns nullopt and `transport_errors` records
  /// why.
  double read_timeout_seconds = 0.0;
};

struct ClientStats {
  std::uint64_t requests_sent = 0;   ///< frames written (incl. resubmits)
  std::uint64_t responses = 0;       ///< frames received and routed
  std::uint64_t overloaded = 0;      ///< overloaded rejections observed
  std::uint64_t retries = 0;         ///< resubmissions performed
  std::uint64_t duplicate_rejects = 0;  ///< "already live" acks absorbed
  std::uint64_t session_errors = 0;  ///< id-0 / unroutable error frames
  /// Reads that failed at the TRANSPORT (framing loss, connection reset,
  /// read timeout) — "the peer is gone or lying", as opposed to
  /// `overloaded` ("the peer is healthy and pushing back"). The
  /// distinction is what lets a coordinator retry overload forever but
  /// fail over a dead worker immediately.
  std::uint64_t transport_errors = 0;
  std::string last_transport_error;  ///< what() of the newest one
  double backoff_seconds = 0.0;      ///< total backoff slept
};

class Client {
 public:
  explicit Client(Transport& transport, ClientOptions options = {});

  /// Sends one control-plane request (load_circuit/status/cancel/
  /// shutdown) and blocks for its response. Throws std::runtime_error if
  /// the transport closes first. No retry: control kinds are answered
  /// inline and a lost session is the caller's signal.
  obs::Json call(const std::string& kind,
                 obs::Json params = obs::Json::object());

  /// Submits a job (run_atpg/fsim) and returns its request id without
  /// waiting. The id stays "pending" until await()/await_any() hands over
  /// its terminal response; overloaded rejections met while pumping any
  /// await are retried per ClientOptions.
  std::uint64_t submit(const std::string& kind, obs::Json params);

  /// Blocks until `id`'s terminal response (retrying it and any other
  /// pending job through overloaded rejections along the way). nullopt
  /// when the transport closed before the terminal arrived — a torn
  /// session, which the caller must treat as "outcome unknown".
  std::optional<obs::Json> await(std::uint64_t id);

  /// Blocks for the next terminal response of ANY pending job; nullopt on
  /// end-of-stream or when nothing is pending.
  std::optional<obs::Json> await_any();

  std::size_t pending_jobs() const { return pending_.size(); }
  const ClientStats& stats() const { return stats_; }

 private:
  struct PendingJob {
    std::string kind;
    obs::Json params;
    std::size_t attempts = 1;
  };

  obs::Json request_json(std::uint64_t id, const std::string& kind,
                         const obs::Json& params) const;
  void send(std::uint64_t id, const std::string& kind,
            const obs::Json& params);
  /// Reads and routes one frame. Returns false on end-of-stream.
  bool pump();
  /// Routes one inbound frame: retries overloaded pending jobs, absorbs
  /// duplicate-id acks, otherwise parks the frame in ready_.
  void route(obs::Json frame);
  void backoff(std::size_t attempt);

  Transport& transport_;
  ClientOptions options_;
  Rng jitter_;
  bool eof_with_pending_recorded_ = false;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, PendingJob> pending_;
  std::map<std::uint64_t, obs::Json> ready_;
  ClientStats stats_;
};

}  // namespace cwatpg::svc
