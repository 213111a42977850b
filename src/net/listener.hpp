// TCP listening socket: bind/listen plus nonblocking accept.
//
// Deliberately small — the interesting state machine (connection
// multiplexing) lives in NetServer; the Listener owns exactly the
// listening fd, reports the port the kernel actually bound (so tests and
// smoke scripts can ask for ":0" and read the ephemeral port back), and
// hands out accepted fds.
//
// Thread-safe: NO — one owner (the NetServer event loop or a
// single-client accept helper).
#pragma once

#include <cstdint>
#include <string>

namespace cwatpg::netio {

class Listener {
 public:
  /// Binds and listens on host:port (SO_REUSEADDR; port 0 = ephemeral).
  /// Throws std::runtime_error on resolve/bind/listen failure.
  Listener(const std::string& host, std::uint16_t port, int backlog = 64);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound port — the kernel's pick when constructed with port 0.
  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  /// Accepts one pending connection; the returned fd is blocking and
  /// close-on-exec. Returns -1 when none is pending (the listening fd is
  /// nonblocking — poll it for readability first). Throws
  /// std::runtime_error on a hard accept failure.
  int accept_connection();

  /// Accepts one connection, blocking until a peer arrives (poll +
  /// accept). A convenience for harnesses that serve exactly one session;
  /// both daemons' `--listen` modes run a NetServer instead.
  int accept_one_blocking();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace cwatpg::netio
