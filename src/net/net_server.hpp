// NetServer: the poll-driven TCP front end that multiplexes N concurrent
// client connections onto ONE svc::Server.
//
// One thread runs the event loop: accept, per-connection frame
// reassembly (one svc::FrameDecoder per connection — the decoder every
// other cwatpg.rpc/1 reader uses), and outbox flushing; responses are
// queued as svc::encode_frame bytes. Job
// execution stays where it always was — the Server's job threads — and
// those threads deliver responses by appending
// serialized frames to the owning connection's bounded outbox and waking
// the loop through a self-pipe. The loop is the only thread that touches
// socket fds, which is what makes connection teardown race-free: once a
// connection dies, its svc session is closed (queued jobs cancelled,
// running budgets fired) and any late terminal is dropped at the session
// table, never written to a dead — possibly reused — fd.
//
// Connection lifecycle (see ARCHITECTURE.md "Network serving"):
//
//   accept ──▶ OPEN ──frame──▶ [svc::Server session]
//     │          │ read EOF / reset / idle timeout / outbox overflow
//     │          ▼
//     │        CLOSED: close_session → cancel jobs, drop late terminals
//     │ at max-connections / net.accept.fail
//     ▼
//   REJECTED: `overloaded` error frame (id 0), flush, close
//
// Backpressure: each connection's outbox is bounded
// (outbox_limit_bytes); a peer that stops reading while responses pile
// up overflows it and is reset — protecting the daemon's memory, exactly
// like queue admission protects its CPU. `shutdown` from any client
// drains the whole daemon: accepting stops, in-flight terminals flush to
// their owners, every shutdown requester gets the final drained
// response, then every connection is flushed and closed.
//
// Observability: net.* metrics land in the svc::Server's registry
// (conns accepted/active/rejected/closed, bytes in/out, outbox
// high-water), so one `status` frame reports the whole stack. Failpoint
// sites: net.accept.fail, net.read.short (caps each recv, as on every fd
// transport), net.write.stall, net.conn.reset, plus the decoder's
// per-frame svc.proto.read.* sites.
//
// Both daemons front their Server with one: `cwatpg_serve --listen` and
// `cwatpg_cluster --listen` (whose Server shards each job) run the same
// loop through run_until_signalled().
//
// Thread-safe: construct, run() and port() from one owner thread;
// stop() may be called from any thread or a signal handler.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/listener.hpp"
#include "svc/server.hpp"

namespace cwatpg::netio {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  /// Admission cap: connection max_connections+1 is answered with an
  /// `overloaded` error frame (id 0) and closed.
  std::size_t max_connections = 64;
  /// Per-connection outbox byte bound; overflow resets the connection.
  std::size_t outbox_limit_bytes = std::size_t(8) << 20;
  /// Reset a connection with no read/write progress for this long
  /// (0 = never). Long-running jobs count as progress when their
  /// responses flush, so only a truly silent peer is reaped.
  double idle_timeout_seconds = 0.0;
};

class NetServer {
 public:
  /// Binds the listener immediately (so port() is valid before run()).
  NetServer(svc::Server& server, const NetServerOptions& options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Runs the event loop until a client's `shutdown` completes its drain
  /// or stop() is called. The svc::Server is drained either way; like
  /// Server::serve, a NetServer serves once.
  void run();

  /// Requests loop exit from any thread (async-signal-safe: one atomic
  /// store and one pipe write). Connections are closed without flushing;
  /// the server still drains before run() returns.
  void stop();

 private:
  struct WakePipe;
  struct Outbox;
  class ConnTransport;
  struct Conn;

  void accept_ready();
  void read_ready(Conn& conn);
  void flush_ready(Conn& conn);
  void teardown(Conn& conn, const char* why);
  void begin_drain();
  void finish_drain();

  svc::Server& server_;
  NetServerOptions options_;
  std::unique_ptr<Listener> listener_;  ///< closed when draining begins
  std::uint16_t port_ = 0;
  std::shared_ptr<WakePipe> wake_;
  std::vector<std::unique_ptr<Conn>> conns_;

  std::atomic<bool> stop_requested_{false};
  bool ran_ = false;
  bool draining_ = false;        ///< a shutdown request arrived
  bool drain_done_seen_ = false; ///< responses enqueued, flushing out
  std::shared_ptr<std::atomic<bool>> drain_done_ =
      std::make_shared<std::atomic<bool>>(false);
  std::thread drain_thread_;
  /// (session, request id) of every shutdown requester — each gets the
  /// final drained response.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> shutdown_reqs_;
};

/// Runs `server` with SIGINT and SIGTERM wired to its stop(), so a signal
/// drains the daemon like a `shutdown` does. One such loop per process.
void run_until_signalled(NetServer& server);

}  // namespace cwatpg::netio
