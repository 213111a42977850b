// Frame transports: how cwatpg.rpc/1 frames physically move.
//
// The server is written against this interface so the same code path is
// exercised everywhere. Every byte stream — a TCP socket, a worker's
// pipes, cwatpg_serve's and cwatpg_cluster's stdin/stdout, the
// socketpair behind make_byte_duplex() — is one FdTransport, which reads
// through a buffer into the one FrameDecoder (svc/proto.hpp).
// make_duplex() skips the bytes and hands whole frames across an
// in-memory queue. Nothing above this layer knows which one it has —
// which is what makes the served-vs-direct determinism tests meaningful
// (they cover the whole server, not a test-only shortcut).
//
// Thread-safe: write() may be called concurrently from any thread (job
// completions race each other and the control plane; each implementation
// serializes frame writes internally, so frames never interleave).
// read() is single-consumer: exactly one thread may be blocked in read()
// at a time — the server's reader loop on one end, the client's response
// collector on the other.
#pragma once

#include <memory>
#include <mutex>

#include "obs/json.hpp"
#include "svc/proto.hpp"

namespace cwatpg::svc {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks for the next inbound frame. Returns false when the peer has
  /// closed and every buffered frame has been drained. Throws
  /// ProtocolError on malformed bytes (byte-stream transports).
  virtual bool read(obs::Json& frame) = 0;

  /// Sends one frame. Thread-safe; frames are written atomically.
  virtual void write(const obs::Json& frame) = 0;

  /// Signals end-of-stream to the peer: its read() drains buffered frames
  /// then returns false. Further write() calls on this end are dropped.
  /// Idempotent; also performed by the destructor.
  virtual void close() = 0;

  /// Asks the transport to bound each read() at `seconds` (0 = unbounded),
  /// after which read() throws ProtocolError. Returns whether the
  /// transport supports timeouts: FdTransport (via poll) and the
  /// make_duplex() ends (via a condition variable) do; the default
  /// implementation ignores the request and returns false.
  virtual bool set_read_timeout(double seconds) {
    (void)seconds;
    return false;
  }
};

/// cwatpg.rpc/1 frames over POSIX file descriptors. read() pulls bytes
/// through a buffer into a FrameDecoder; write() sends encode_frame()'s
/// bytes under a mutex. The two forms differ only in what their inputs
/// already say:
///
///  - FdTransport(fd): one connected socket (TCP, socketpair), read and
///    written, closed once by the destructor. close() half-closes with
///    shutdown(SHUT_WR); writes use MSG_NOSIGNAL, so a vanished peer never
///    raises SIGPIPE; TCP_NODELAY is set, because frames are
///    latency-bound request/response units.
///  - FdTransport(read_fd, write_fd): pipes or stdio; either fd may be -1
///    for a half-open transport. close() closes the write fd — the peer's
///    stdin sees EOF, which is how a coordinator stops a worker. A write
///    to a pipe whose reader is gone raises SIGPIPE unless the process
///    ignores it (cwatpg_serve and cwatpg_cluster do).
///
/// Takes ownership of the fds. A peer that vanishes (FIN or pipe EOF,
/// including a kill -9'd process) is end-of-stream at a frame boundary and
/// a ProtocolError inside one. Write errors are dropped: the peer's death
/// surfaces once, on the next read().
///
/// Failpoints: `net.read.short` (arg K caps each read(2)), `net.conn.reset`
/// (a read throws as if the connection were reset), `svc.proto.write.short`
/// (arg K caps each write(2)/send(2) of a frame), plus the decoder's
/// per-frame sites.
class FdTransport final : public Transport {
 public:
  explicit FdTransport(int socket_fd);
  FdTransport(int read_fd, int write_fd);
  ~FdTransport() override;

  bool read(obs::Json& frame) override;
  void write(const obs::Json& frame) override;
  void close() override;
  /// Supported (poll(2) before each read): how a coordinator bounds a
  /// heartbeat probe so a wedged-but-alive worker cannot hang it.
  bool set_read_timeout(double seconds) override;

 private:
  /// One read(2) of at most `max` bytes, honoring the read timeout.
  /// Returns 0 at end of stream; throws ProtocolError on error or timeout.
  std::size_t read_some(char* dst, std::size_t max);
  bool one_socket() const { return read_fd_ == write_fd_; }

  const int read_fd_;
  const int write_fd_;
  FrameDecoder decoder_;               ///< single-consumer, like read()
  double read_timeout_seconds_ = 0.0;  ///< single-consumer, like read()
  std::mutex write_mutex_;
  bool write_closed_ = false;  ///< guarded by write_mutex_
};

/// The two ends of a duplex link. Frames written on one end are read (in
/// order) on the other. Destroying or close()-ing an end wakes the peer's
/// read() with end-of-stream once its buffer drains.
struct DuplexPair {
  std::unique_ptr<Transport> client;
  std::unique_ptr<Transport> server;
};

/// An in-memory frame queue per direction (bounded by memory): frames
/// skip the byte codec entirely.
DuplexPair make_duplex();

/// Two FdTransports over a socketpair(2): frames pass through the whole
/// cwatpg.rpc/1 byte path — encode_frame, real kernel short reads, the
/// decoder and every transport failpoint — instead of the frame-queue
/// shortcut. This is what bench_chaos and the transport-resilience tests
/// drive.
DuplexPair make_byte_duplex();

}  // namespace cwatpg::svc
