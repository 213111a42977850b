#include "svc/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/failpoint.hpp"

namespace cwatpg::svc {

// ---- FdTransport ----------------------------------------------------------

FdTransport::FdTransport(int socket_fd)
    : read_fd_(socket_fd), write_fd_(socket_fd) {
  const int one = 1;  // fails harmlessly on a socketpair
  ::setsockopt(socket_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

FdTransport::FdTransport(int read_fd, int write_fd)
    : read_fd_(read_fd), write_fd_(write_fd) {}

FdTransport::~FdTransport() {
  close();
  if (read_fd_ >= 0) ::close(read_fd_);
}

bool FdTransport::set_read_timeout(double seconds) {
  read_timeout_seconds_ = seconds > 0.0 ? seconds : 0.0;
  return true;
}

std::size_t FdTransport::read_some(char* dst, std::size_t max) {
  // Failpoint: cap this pass at @K bytes so every reassembly path (header
  // split across reads, payload trickling in) is exercised on demand.
  if (const int k = CWATPG_FAILPOINT_ARG("net.read.short"); k >= 0)
    max = std::min<std::size_t>(max,
                                static_cast<std::size_t>(std::max(1, k)));
  if (CWATPG_FAILPOINT("net.conn.reset"))
    throw ProtocolError("connection reset by peer (injected: "
                        "net.conn.reset)");
  for (;;) {
    if (read_timeout_seconds_ > 0.0) {
      ::pollfd pfd{read_fd_, POLLIN, 0};
      const int timeout_ms = static_cast<int>(
          std::max(1.0, read_timeout_seconds_ * 1000.0));
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr == 0)
        throw ProtocolError("read timed out after " +
                            std::to_string(read_timeout_seconds_) + "s");
      if (pr < 0) {
        if (errno == EINTR) continue;
        throw ProtocolError(std::string("poll failed: ") +
                            std::strerror(errno));
      }
      // POLLHUP/POLLERR fall through to read(2), which reports the EOF
      // or error precisely.
    }
    const ssize_t n = ::read(read_fd_, dst, max);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    throw ProtocolError(std::string("read failed: ") + std::strerror(errno));
  }
}

bool FdTransport::read(obs::Json& frame) {
  if (read_fd_ < 0) return false;
  while (!decoder_.next(frame)) {
    char buf[64 * 1024];
    const std::size_t n = read_some(buf, sizeof buf);
    if (n == 0) {
      if (decoder_.idle()) return false;  // clean EOF at a frame boundary
      throw ProtocolError("peer closed mid-frame");
    }
    decoder_.feed(buf, n);
  }
  return true;
}

void FdTransport::write(const obs::Json& frame) {
  const std::string bytes = encode_frame(frame);
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (write_closed_ || write_fd_ < 0) return;  // closed: drop, per contract
  // Failpoint: dribble the frame out @K bytes per call, so the peer's
  // reassembly meets short writes too.
  std::size_t chunk = bytes.size();
  if (const int k = CWATPG_FAILPOINT_ARG("svc.proto.write.short"); k >= 0)
    chunk = static_cast<std::size_t>(std::max(1, k));
  std::size_t put = 0;
  while (put < bytes.size()) {
    const std::size_t want = std::min(chunk, bytes.size() - put);
    const ssize_t w =
        one_socket()
            ? ::send(write_fd_, bytes.data() + put, want, MSG_NOSIGNAL)
            : ::write(write_fd_, bytes.data() + put, want);
    if (w >= 0) {
      put += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    // Peer gone (EPIPE/ECONNRESET): our next read() reports it; a write
    // error here would double the signal, so drop the rest quietly.
    return;
  }
}

void FdTransport::close() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (write_closed_ || write_fd_ < 0) return;
  write_closed_ = true;
  // Half-close: the peer drains buffered frames and sees EOF, while our
  // own read() keeps working until the peer closes too.
  if (one_socket())
    ::shutdown(write_fd_, SHUT_WR);
  else
    ::close(write_fd_);
}

// ---- in-memory duplex -----------------------------------------------------

namespace {

/// One direction of the pipe: a frame queue with close semantics.
class FrameChannel {
 public:
  void push(const obs::Json& frame) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;  // writes after close are dropped, like a pipe
      frames_.push_back(frame);
    }
    cv_.notify_one();
  }

  /// `timeout_seconds` > 0 bounds the wait; expiry throws ProtocolError —
  /// the same torn-session shape FdTransport gives, so heartbeat code
  /// paths are testable over in-memory pairs.
  bool pop(obs::Json& frame, double timeout_seconds) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ready = [&] { return closed_ || !frames_.empty(); };
    if (timeout_seconds > 0.0) {
      if (!cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                        ready))
        throw ProtocolError("read timed out after " +
                            std::to_string(timeout_seconds) + "s");
    } else {
      cv_.wait(lock, ready);
    }
    if (frames_.empty()) return false;  // closed and drained
    frame = std::move(frames_.front());
    frames_.pop_front();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<obs::Json> frames_;
  bool closed_ = false;
};

/// Shared state of a duplex pair; each end holds a shared_ptr so either
/// end may be destroyed first.
struct DuplexCore {
  FrameChannel to_server;
  FrameChannel to_client;
};

class DuplexEnd final : public Transport {
 public:
  DuplexEnd(std::shared_ptr<DuplexCore> core, bool is_client)
      : core_(std::move(core)), is_client_(is_client) {}

  ~DuplexEnd() override { DuplexEnd::close(); }

  bool read(obs::Json& frame) override {
    return inbox().pop(frame, read_timeout_seconds_);
  }

  void write(const obs::Json& frame) override { outbox().push(frame); }

  bool set_read_timeout(double seconds) override {
    read_timeout_seconds_ = seconds > 0.0 ? seconds : 0.0;
    return true;
  }

  void close() override {
    // Closing an end stops both directions it participates in: the peer
    // sees EOF after draining, and our own pending reads unblock too
    // (nothing further can arrive once the peer learns we are gone —
    // matching how a process sees its pipe after the far end exits).
    outbox().close();
    inbox().close();
  }

 private:
  FrameChannel& inbox() {
    return is_client_ ? core_->to_client : core_->to_server;
  }
  FrameChannel& outbox() {
    return is_client_ ? core_->to_server : core_->to_client;
  }

  std::shared_ptr<DuplexCore> core_;
  bool is_client_;
  double read_timeout_seconds_ = 0.0;  ///< single-consumer, like read()
};

}  // namespace

DuplexPair make_duplex() {
  auto core = std::make_shared<DuplexCore>();
  DuplexPair pair;
  pair.client = std::make_unique<DuplexEnd>(core, /*is_client=*/true);
  pair.server = std::make_unique<DuplexEnd>(core, /*is_client=*/false);
  return pair;
}

DuplexPair make_byte_duplex() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw std::runtime_error(std::string("socketpair failed: ") +
                             std::strerror(errno));
  DuplexPair pair;
  pair.client = std::make_unique<FdTransport>(sv[0]);
  pair.server = std::make_unique<FdTransport>(sv[1]);
  return pair;
}

}  // namespace cwatpg::svc
