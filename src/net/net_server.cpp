#include "net/net_server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "svc/proto.hpp"
#include "util/failpoint.hpp"

namespace cwatpg::netio {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// How long a connection marked close-after-flush may sit with an
/// unflushed outbox before it is reset anyway — bounds shutdown against a
/// peer that stops reading.
constexpr double kFlushGraceSeconds = 5.0;

std::atomic<NetServer*> g_signalled{nullptr};

void stop_on_signal(int) {
  if (NetServer* server = g_signalled.load()) server->stop();
}

}  // namespace

void run_until_signalled(NetServer& server) {
  g_signalled.store(&server);
  ::signal(SIGINT, stop_on_signal);
  ::signal(SIGTERM, stop_on_signal);
  server.run();
  g_signalled.store(nullptr);
}

// Self-pipe: worker threads (and signal handlers, via stop()) wake the
// poll loop by writing one byte to the nonblocking write end.
struct NetServer::WakePipe {
  int fds[2] = {-1, -1};
  WakePipe() {
    if (::pipe(fds) != 0)
      throw std::runtime_error(std::string("pipe failed: ") +
                               std::strerror(errno));
    for (const int fd : fds) {
      set_nonblocking(fd);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
  }
  ~WakePipe() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  void wake() {
    const char b = 'w';
    // A full pipe already guarantees a pending wakeup; EAGAIN is success.
    [[maybe_unused]] const ssize_t n = ::write(fds[1], &b, 1);
  }
  void drain() {
    char buf[256];
    while (::read(fds[0], buf, sizeof buf) > 0) {
    }
  }
};

// The bounded per-connection response buffer. Worker threads append
// serialized frames; only the event loop removes bytes (flush) or closes
// it. An append that would exceed `limit` marks the outbox overflowed
// instead of growing — the loop resets the connection, because a peer
// that is not reading responses has broken the conversation and buffering
// for it without bound would let one slow client exhaust the daemon.
struct NetServer::Outbox {
  std::mutex mutex;
  std::string buf;
  std::size_t limit = 0;
  bool closed = false;      ///< connection torn down; drop appends
  bool overflowed = false;  ///< limit hit; loop will reset the conn
  obs::Gauge* high_water = nullptr;  ///< net.outbox.high_water
};

// The svc::Transport the Server writes session responses through: write()
// serializes the frame into the outbox and wakes the loop. read() is
// never used (inbound frames arrive through the event loop's own
// nonblocking reassembly) and reports end-of-stream.
class NetServer::ConnTransport final : public svc::Transport {
 public:
  ConnTransport(std::shared_ptr<Outbox> outbox,
                std::shared_ptr<WakePipe> wake)
      : outbox_(std::move(outbox)), wake_(std::move(wake)) {}

  bool read(obs::Json&) override { return false; }

  void write(const obs::Json& frame) override {
    const std::string bytes = svc::encode_frame(frame);
    {
      std::lock_guard<std::mutex> lock(outbox_->mutex);
      if (outbox_->closed) return;  // dead connection: drop, per contract
      if (outbox_->buf.size() + bytes.size() > outbox_->limit) {
        outbox_->overflowed = true;
      } else {
        outbox_->buf += bytes;
        if (outbox_->high_water)
          outbox_->high_water->max_in(
              static_cast<double>(outbox_->buf.size()));
      }
    }
    wake_->wake();
  }

  void close() override {
    std::lock_guard<std::mutex> lock(outbox_->mutex);
    outbox_->closed = true;
  }

 private:
  std::shared_ptr<Outbox> outbox_;
  std::shared_ptr<WakePipe> wake_;
};

struct NetServer::Conn {
  int fd = -1;
  svc::Server::SessionId session = 0;  ///< 0 = rejected (no svc session)
  std::shared_ptr<Outbox> outbox;
  std::shared_ptr<ConnTransport> transport;

  svc::FrameDecoder decoder;  ///< inbound frames (the loop is the only reader)

  bool torn = false;  ///< framing lost: stop reading, flush the error, close
  bool close_after_flush = false;
  Clock::time_point flush_deadline{};  ///< armed with close_after_flush
  Clock::time_point last_activity = Clock::now();
  bool dead = false;  ///< swept at the end of the loop pass
};

NetServer::NetServer(svc::Server& server, const NetServerOptions& options)
    : server_(server),
      options_(options),
      listener_(std::make_unique<Listener>(options.host, options.port)),
      wake_(std::make_shared<WakePipe>()) {
  port_ = listener_->port();
}

NetServer::~NetServer() {
  if (drain_thread_.joinable()) drain_thread_.join();
}

void NetServer::stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  wake_->wake();
}

void NetServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  // Release the address immediately: new clients get a connection refusal
  // (a clear, retriable signal) instead of queueing in a backlog no one
  // will ever accept from.
  listener_.reset();
  auto done = drain_done_;
  auto wake = wake_;
  svc::Server* server = &server_;
  drain_thread_ = std::thread([server, done, wake] {
    server->drain();
    done->store(true, std::memory_order_release);
    wake->wake();
  });
}

void NetServer::finish_drain() {
  drain_thread_.join();
  drain_done_seen_ = true;
  // Every shutdown requester gets the final drained response; everyone
  // else just sees their last terminals flush and then EOF.
  for (const auto& [session, id] : shutdown_reqs_) {
    for (auto& conn : conns_) {
      if (!conn->dead && conn->session == session) {
        conn->transport->write(server_.shutdown_response(id));
        break;
      }
    }
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kFlushGraceSeconds));
  for (auto& conn : conns_) {
    conn->close_after_flush = true;
    conn->flush_deadline = deadline;
  }
}

void NetServer::teardown(Conn& conn, const char* why) {
  if (conn.dead) return;
  conn.dead = true;
  if (conn.session != 0) {
    // Cancels the connection's queued and running jobs and drops any late
    // terminal at the session table — never at this (soon reused) fd.
    server_.close_session(conn.session);
    conn.session = 0;
  }
  {
    std::lock_guard<std::mutex> lock(conn.outbox->mutex);
    conn.outbox->closed = true;
    conn.outbox->buf.clear();
  }
  // Count before closing: close() is what the peer observes (EOF or RST),
  // so counting after it would let a client read the metrics snapshot
  // before the close shows up there.
  server_.metrics().counter(std::string("net.conns.closed.") + why).add();
  server_.metrics().counter("net.conns.closed").add();
  ::close(conn.fd);
  conn.fd = -1;
}

void NetServer::accept_ready() {
  auto& accepted = server_.metrics().counter("net.conns.accepted");
  auto& rejected = server_.metrics().counter("net.conns.rejected");
  auto& hw = server_.metrics().gauge("net.outbox.high_water");
  for (;;) {
    const int fd = listener_ ? listener_->accept_connection() : -1;
    if (fd < 0) break;
    if (CWATPG_FAILPOINT("net.accept.fail")) {
      ::close(fd);
      rejected.add();
      continue;
    }
    set_nonblocking(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->outbox = std::make_shared<Outbox>();
    conn->outbox->limit = options_.outbox_limit_bytes;
    conn->outbox->high_water = &hw;
    conn->transport = std::make_shared<ConnTransport>(conn->outbox, wake_);

    std::size_t live = 0;
    for (const auto& c : conns_)
      if (!c->dead && !c->close_after_flush) ++live;
    if (live >= options_.max_connections) {
      // Admission control at the socket layer, same shape as the queue's:
      // answer `overloaded` (id 0 — no request to correlate with), flush,
      // close. No svc session exists, so nothing to clean up later.
      conn->transport->write(svc::make_error(
          0, svc::ErrorCode::kOverloaded,
          "connection limit reached (" +
              std::to_string(options_.max_connections) + "); retry later"));
      conn->close_after_flush = true;
      conn->flush_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 kFlushGraceSeconds));
      rejected.add();
    } else {
      conn->session = server_.open_session(conn->transport);
      accepted.add();
    }
    conns_.push_back(std::move(conn));
  }
}

void NetServer::read_ready(Conn& conn) {
  if (conn.torn || conn.close_after_flush) return;
  char buf[64 * 1024];
  std::size_t cap = sizeof buf;
  if (const int k = CWATPG_FAILPOINT_ARG("net.read.short"); k >= 0)
    cap = std::min<std::size_t>(cap,
                                static_cast<std::size_t>(std::max(1, k)));
  if (CWATPG_FAILPOINT("net.conn.reset")) {
    teardown(conn, "reset");
    return;
  }
  ssize_t n;
  for (;;) {
    n = ::recv(conn.fd, buf, cap, 0);
    if (n >= 0 || errno != EINTR) break;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    teardown(conn, "error");
    return;
  }
  if (n == 0) {  // peer FIN: the disconnect that cancels this conn's jobs
    teardown(conn, "eof");
    return;
  }
  server_.metrics().counter("net.bytes.in").add(static_cast<std::uint64_t>(n));
  conn.last_activity = Clock::now();

  // A framing violation poisons the rest of the stream, so it is answered
  // once (`bad_request`, id 0) and the connection is torn down after the
  // error flushes.
  conn.decoder.feed(buf, static_cast<std::size_t>(n));
  try {
    obs::Json frame;
    while (conn.decoder.next(frame)) {
      if (conn.session == 0) continue;
      if (const auto shutdown_id =
              server_.handle_session_frame(conn.session, frame)) {
        shutdown_reqs_.emplace_back(conn.session, *shutdown_id);
        begin_drain();
      }
    }
  } catch (const svc::ProtocolError& e) {
    conn.transport->write(
        svc::make_error(0, svc::ErrorCode::kBadRequest, e.what()));
    if (conn.session != 0) {
      server_.close_session(conn.session);
      conn.session = 0;
    }
    conn.torn = true;
    conn.close_after_flush = true;
    conn.flush_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kFlushGraceSeconds));
  }
}

void NetServer::flush_ready(Conn& conn) {
  // Failpoint: pretend the socket buffer is full for one pass, so tests
  // can pile bytes into the outbox and exercise backpressure/overflow.
  if (CWATPG_FAILPOINT("net.write.stall")) return;
  for (;;) {
    std::unique_lock<std::mutex> lock(conn.outbox->mutex);
    if (conn.outbox->buf.empty()) return;
    ssize_t w;
    for (;;) {
      w = ::send(conn.fd, conn.outbox->buf.data(), conn.outbox->buf.size(),
                 MSG_NOSIGNAL);
      if (w >= 0 || errno != EINTR) break;
    }
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      lock.unlock();
      teardown(conn, "error");
      return;
    }
    conn.outbox->buf.erase(0, static_cast<std::size_t>(w));
    lock.unlock();
    server_.metrics().counter("net.bytes.out")
        .add(static_cast<std::uint64_t>(w));
    conn.last_activity = Clock::now();
  }
}

void NetServer::run() {
  if (ran_) throw std::logic_error("net::NetServer::run is single-use");
  ran_ = true;
  fp::DomainScope fp_domain("net.loop");
  auto& active_gauge = server_.metrics().gauge("net.conns.active");

  std::vector<::pollfd> pfds;
  std::vector<Conn*> pfd_conns;  // parallel to pfds[2..]
  while (true) {
    pfds.clear();
    pfd_conns.clear();
    pfds.push_back({wake_->fds[0], POLLIN, 0});
    if (listener_) pfds.push_back({listener_->fd(), POLLIN, 0});
    const std::size_t conns_base = pfds.size();
    for (auto& conn : conns_) {
      if (conn->dead) continue;
      short events = 0;
      if (!conn->torn && !conn->close_after_flush) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->outbox->mutex);
        if (!conn->outbox->buf.empty()) events |= POLLOUT;
      }
      pfds.push_back({conn->fd, events, 0});
      pfd_conns.push_back(conn.get());
    }

    // Timed ticks only when a timer could fire; otherwise sleep until a
    // socket or the self-pipe wakes us.
    int timeout_ms = -1;
    if (options_.idle_timeout_seconds > 0 || draining_ || drain_done_seen_)
      timeout_ms = 100;
    const int pr = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (pr < 0 && errno != EINTR)
      throw std::runtime_error(std::string("poll failed: ") +
                               std::strerror(errno));

    if (pfds[0].revents & POLLIN) wake_->drain();
    if (stop_requested_.load(std::memory_order_relaxed)) break;
    if (!drain_done_seen_ && drain_done_->load(std::memory_order_acquire))
      finish_drain();
    if (listener_ && conns_base == 2 && (pfds[1].revents & POLLIN))
      accept_ready();

    for (std::size_t k = 0; k < pfd_conns.size(); ++k) {
      Conn& conn = *pfd_conns[k];
      const short re = pfds[conns_base + k].revents;
      if (conn.dead) continue;
      if (re & (POLLERR | POLLNVAL)) {
        teardown(conn, "error");
        continue;
      }
      if (re & POLLIN) read_ready(conn);
      if (conn.dead) continue;
      if (re & (POLLOUT | POLLIN)) flush_ready(conn);
      if (conn.dead) continue;
      // POLLHUP with no readable data left: the peer is fully gone.
      if ((re & POLLHUP) && !(re & POLLIN)) teardown(conn, "eof");
    }

    // Timers and deferred state, after I/O.
    const auto now = Clock::now();
    for (auto& conn : conns_) {
      if (conn->dead) continue;
      bool overflowed, flushed;
      {
        std::lock_guard<std::mutex> lock(conn->outbox->mutex);
        overflowed = conn->outbox->overflowed;
        flushed = conn->outbox->buf.empty();
      }
      if (overflowed) {
        teardown(*conn, "overflow");
        continue;
      }
      if (conn->close_after_flush) {
        if (flushed)
          teardown(*conn, "flushed");
        else if (now >= conn->flush_deadline)
          teardown(*conn, "flush_timeout");
        continue;
      }
      if (options_.idle_timeout_seconds > 0 &&
          std::chrono::duration<double>(now - conn->last_activity).count() >
              options_.idle_timeout_seconds)
        teardown(*conn, "idle");
    }
    std::erase_if(conns_, [](const auto& c) { return c->dead; });
    active_gauge.set(static_cast<double>(conns_.size()));

    if (drain_done_seen_ && conns_.empty()) return;  // graceful exit
  }

  // stop() path: no flushing — close every connection (cancelling its
  // jobs) so the drain below cannot block on work nobody will read.
  for (auto& conn : conns_) teardown(*conn, "stopped");
  conns_.clear();
  active_gauge.set(0.0);
  listener_.reset();
  if (drain_thread_.joinable())
    drain_thread_.join();
  else
    server_.drain();
}

}  // namespace cwatpg::netio
