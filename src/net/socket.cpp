#include "net/socket.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace cwatpg::netio {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) throw_errno("fcntl(F_SETFL)");
}

}  // namespace

void parse_host_port(const std::string& spec, std::string* host,
                     std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos)
    throw std::runtime_error("expected host:port, got \"" + spec + "\"");
  const std::string host_part = spec.substr(0, colon);
  const std::string port_part = spec.substr(colon + 1);
  if (port_part.empty() ||
      port_part.find_first_not_of("0123456789") != std::string::npos)
    throw std::runtime_error("bad port in \"" + spec + "\"");
  const unsigned long p = std::stoul(port_part);
  if (p > 65535)
    throw std::runtime_error("port " + port_part + " out of range");
  *host = host_part.empty() ? std::string("0.0.0.0") : host_part;
  *port = static_cast<std::uint16_t>(p);
}

int tcp_connect(const std::string& host, std::uint16_t port,
                double timeout_seconds) {
  ::addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  ::addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                                   &res);
      rc != 0)
    throw std::runtime_error("cannot resolve " + host + ": " +
                             ::gai_strerror(rc));

  std::string last_error = "no addresses";
  int fd = -1;
  for (::addrinfo* ai = res; ai != nullptr && fd < 0; ai = ai->ai_next) {
    const int s = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (s < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    // Nonblocking connect + poll: the only portable way to bound the
    // three-way handshake (a blocking connect can hang for minutes on a
    // black-holed route, which is exactly what a coordinator dialing a
    // dead worker must not do).
    bool ok = false;
    try {
      if (timeout_seconds > 0) set_nonblocking(s, true);
      if (::connect(s, ai->ai_addr, ai->ai_addrlen) == 0) {
        ok = true;
      } else if (timeout_seconds > 0 && errno == EINPROGRESS) {
        ::pollfd pfd{s, POLLOUT, 0};
        const int timeout_ms =
            static_cast<int>(std::max(1.0, timeout_seconds * 1000.0));
        const int pr = ::poll(&pfd, 1, timeout_ms);
        if (pr > 0) {
          int soerr = 0;
          ::socklen_t len = sizeof(soerr);
          ::getsockopt(s, SOL_SOCKET, SO_ERROR, &soerr, &len);
          if (soerr == 0) {
            ok = true;
          } else {
            last_error = std::string("connect: ") + std::strerror(soerr);
          }
        } else {
          last_error = pr == 0 ? "connect timed out"
                               : std::string("poll: ") + std::strerror(errno);
        }
      } else {
        last_error = std::string("connect: ") + std::strerror(errno);
      }
      if (ok && timeout_seconds > 0) set_nonblocking(s, false);
    } catch (const std::exception& e) {
      last_error = e.what();
      ok = false;
    }
    if (ok) {
      fd = s;
    } else {
      ::close(s);
    }
  }
  ::freeaddrinfo(res);
  if (fd < 0)
    throw std::runtime_error("tcp_connect " + host + ":" + port_str +
                             " failed (" + last_error + ")");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int tcp_connect_retry(const std::string& host, std::uint16_t port,
                      double timeout_seconds,
                      const svc::RetryOptions& retry) {
  int fd = -1;
  std::string last_error = "no attempts made";
  const bool ok = svc::retry_with_backoff(retry, [&](std::size_t) {
    try {
      fd = tcp_connect(host, port, timeout_seconds);
      return true;
    } catch (const std::exception& e) {
      last_error = e.what();
      return false;
    }
  });
  if (!ok)
    throw std::runtime_error(
        "tcp_connect " + host + ":" + std::to_string(port) + ": all " +
        std::to_string(std::max<std::size_t>(1, retry.max_attempts)) +
        " attempts failed; last: " + last_error);
  return fd;
}

}  // namespace cwatpg::netio
