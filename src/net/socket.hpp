// POSIX TCP building blocks for the cwatpg.rpc/1 serving stack: dialing
// (tcp_connect, with or without retry) and "host:port" parsing.
//
// A connected socket carries frames through svc::FdTransport(fd), named
// SocketTransport here — the same transport, decoder and failpoints as
// pipes and stdio. That is the BLOCKING side of the net
// layer: the svc::Client in a coordinator, a remote worker attachment, or
// a test harness owns the socket and reads frames synchronously (with an
// optional per-read timeout). The nonblocking, many-connection side lives
// in net_server.hpp.
//
// Thread-safe: the free functions are; see svc::FdTransport for the
// transport's contract.
#pragma once

#include <cstdint>
#include <string>

#include "svc/supervisor.hpp"
#include "svc/transport.hpp"

namespace cwatpg::netio {

/// Splits "host:port" (host may be empty → "0.0.0.0"). Throws
/// std::runtime_error on a missing ':' or an out-of-range port.
void parse_host_port(const std::string& spec, std::string* host,
                     std::uint16_t* port);

/// Dials host:port (numeric or resolvable loopback names) with a bounded
/// connect. `timeout_seconds` <= 0 means the OS default. Returns a
/// connected blocking fd; throws std::runtime_error on failure. TCP_NODELAY
/// is set: frames are latency-bound request/response units, not bulk.
int tcp_connect(const std::string& host, std::uint16_t port,
                double timeout_seconds = 0.0);

/// tcp_connect under the service layer's bounded retry-with-backoff: how
/// `--connect` tolerates a worker daemon that has not finished booting
/// (or is restarting) when the coordinator dials it. Each attempt gets
/// `timeout_seconds`; between attempts the svc::RetryOptions backoff
/// schedule sleeps (seeded jitter, so the schedule is replayable in
/// tests). Throws std::runtime_error carrying the LAST attempt's error
/// once all attempts fail.
int tcp_connect_retry(const std::string& host, std::uint16_t port,
                      double timeout_seconds,
                      const svc::RetryOptions& retry);

/// svc::Transport over one connected socket fd (takes ownership): reads
/// and writes frames, half-closes with shutdown(SHUT_WR), never raises
/// SIGPIPE. See svc::FdTransport.
using SocketTransport = svc::FdTransport;

}  // namespace cwatpg::netio
