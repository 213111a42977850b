// The cwatpg.rpc/1 wire protocol: framed JSON request/response pairs.
//
// Every message is one obs::Json document carried in a length-prefixed
// frame (`<decimal byte count>\n<payload>`), so the stream is resyncable
// by eye, trivially driven from a shell or Python, and never requires the
// reader to parse ahead of a message boundary. The JSON itself reuses
// obs/json — the same parser the run-report round-trip tests exercise —
// with the untrusted-input limits (frame size cap, nesting-depth cap)
// enforced here, at the network edge.
//
// Requests:  {"schema":"cwatpg.rpc/1","id":N,"kind":K,"params":{...}}
// Responses: {"schema":"cwatpg.rpc/1","id":N,"ok":true,"result":{...}}
//        or  {"schema":"cwatpg.rpc/1","id":N,"ok":false,
//             "error":{"code":C,"message":M}}
//
// `id` is chosen by the client and echoed verbatim; responses may arrive
// out of submission order (jobs complete when they complete), so the id is
// the only correlation key. Kinds `run_atpg` and `fsim` are *jobs*: the
// request is admitted (or rejected with `overloaded`) and its single
// terminal response is sent when the job finishes, fails, or is cancelled.
// `load_circuit`, `status`, `cancel` and `shutdown` are control-plane
// requests answered inline, in order.
//
// Thread-safe: the free functions are; a FrameDecoder has one owner, and
// frame writes for one stream must be externally serialized
// (svc::Transport does this).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/tegus.hpp"
#include "obs/json.hpp"

namespace cwatpg::svc {

inline constexpr const char* kRpcSchema = "cwatpg.rpc/1";

/// Hard ceiling on one frame's payload size. A length header above this is
/// a protocol error. No header sizes a buffer, either: FrameDecoder keeps
/// only the bytes that have arrived, so a hostile header cannot make the
/// server reserve memory it was never sent.
inline constexpr std::size_t kMaxFrameBytes = std::size_t(64) << 20;

/// Nesting-depth cap handed to obs::Json::parse for frames (requests come
/// from untrusted clients; a deeply nested document must fail parsing, not
/// exhaust the parser's stack).
inline constexpr std::size_t kMaxFrameDepth = 32;

/// Malformed frame or malformed/ill-typed message. Carries a human-readable
/// reason; the server maps it to a `bad_request` error response.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("cwatpg.rpc: " + what) {}
};

// ---- frame codec ----------------------------------------------------------

/// Digit cap on the decimal length header. Far above what kMaxFrameBytes
/// ever needs, and small enough that the accumulated value cannot overflow
/// a std::size_t — the cap is what lets the decoder parse the header
/// without a range-checked string-to-integer conversion.
inline constexpr std::size_t kMaxFrameHeaderDigits = 12;

/// One frame as it goes on the wire: decimal payload length, '\n', compact
/// JSON payload. The only writer of the length header.
std::string encode_frame(const obs::Json& frame);

/// Incremental cwatpg.rpc/1 frame decoder: bytes in, whole frames out.
/// The only parser of the length header — every reader (svc::FdTransport
/// over pipes, sockets and stdio, and NetServer's per-connection reader)
/// pushes what it receives through feed() and pops frames with next(), so
/// header syntax, the kMaxFrameBytes cap, the kMaxFrameDepth cap and the
/// clean-EOF-versus-truncated-frame rule cannot drift between transports.
///
/// Only bytes that have arrived are buffered: the advertised length sizes
/// nothing, and a header above kMaxFrameBytes is rejected the moment its
/// '\n' is parsed, before any payload is kept for it.
///
/// Failpoints, each evaluated once per frame in the caller's domain:
/// `svc.proto.read.corrupt_len` (the frame's first byte reads as a
/// non-digit) and `svc.proto.read.eof` (the payload is cut off right
/// after the header).
///
/// Thread-safe: no — one owner, like Transport::read.
class FrameDecoder {
 public:
  /// Appends received bytes. Never throws.
  void feed(const char* data, std::size_t n);

  /// Pops the next whole frame; false when more bytes are needed. Throws
  /// ProtocolError on a malformed or oversized header, or a payload that
  /// is not one JSON document within kMaxFrameDepth — the stream is
  /// unusable after that.
  bool next(obs::Json& frame);

  /// No part of an unfinished frame is held (call after next() returned
  /// false). At end of stream this is a clean close; anything else is a
  /// truncated frame.
  bool idle() const { return digits_ == 0 && buffered() == 0; }

  /// Bytes received but not yet delivered, not counting a length header
  /// that has already been parsed.
  std::size_t buffered() const { return buf_.size() - head_; }

 private:
  std::string buf_;
  std::size_t head_ = 0;      ///< consumed prefix of buf_
  std::size_t length_ = 0;    ///< header value parsed so far
  std::size_t digits_ = 0;    ///< header digits parsed so far (0 = between frames)
  bool have_length_ = false;  ///< header complete; awaiting length_ payload bytes
};

// ---- requests -------------------------------------------------------------

enum class RequestKind : std::uint8_t {
  kLoadCircuit,  ///< parse + register a circuit; inline
  kRunAtpg,      ///< full ATPG flow on a registered circuit; a job
  kFsim,         ///< fault-simulate patterns against a circuit; a job
  kStatus,       ///< server / queue / registry / per-job state; inline
  kCancel,       ///< cancel a queued or in-flight job; inline
  kShutdown,     ///< graceful drain, final response, serve() returns
};

/// "load_circuit" / "run_atpg" / "fsim" / "status" / "cancel" /
/// "shutdown" — the wire spellings; renaming one is a protocol change.
const char* to_string(RequestKind kind);
std::optional<RequestKind> parse_request_kind(std::string_view name);

/// A validated request envelope. `params` keeps the raw (already
/// depth-limited) JSON object; per-kind parameter validation happens where
/// the parameters are consumed, so one bad field yields a `bad_request`
/// response for exactly that request.
struct Request {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kStatus;
  obs::Json params;  ///< object; empty object when the frame omitted it

  obs::Json to_json() const;
  /// Validates schema/id/kind. Throws ProtocolError on any violation.
  static Request from_json(const obs::Json& j);
};

// ---- responses ------------------------------------------------------------

/// Stable machine-readable failure codes.
enum class ErrorCode : std::uint8_t {
  kBadRequest,    ///< malformed frame, unknown kind, ill-typed params
  kNotFound,      ///< unknown circuit key or job id
  kOverloaded,    ///< job queue full; retry later
  kCancelled,     ///< job cancelled before producing a result
  kShuttingDown,  ///< server draining; job was not run
  kInternal,      ///< engine threw; message carries the what()
};

/// "bad_request" / "not_found" / "overloaded" / "cancelled" /
/// "shutting_down" / "internal" — wire spellings.
const char* to_string(ErrorCode code);

/// {"schema":...,"id":id,"ok":true,"result":result}
obs::Json make_response(std::uint64_t id, obs::Json result);

/// {"schema":...,"id":id,"ok":false,"error":{"code":...,"message":...}}
obs::Json make_error(std::uint64_t id, ErrorCode code,
                     std::string_view message);

// ---- pattern codec --------------------------------------------------------
//
// Test patterns (one bit per primary input — fault::Pattern) travel as
// "0101…" strings: unambiguous, diffable, and byte-identical encoding is
// exactly what the served-vs-direct determinism contract compares.

std::string encode_bits(const std::vector<bool>& bits);

/// Inverse of encode_bits. Throws ProtocolError when `text` contains a
/// character other than '0'/'1' or its length differs from `expected_size`.
std::vector<bool> decode_bits(std::string_view text,
                              std::size_t expected_size);

// ---- shard outcome codec --------------------------------------------------
//
// Per-fault records a `run_atpg` job returns when its request sets
// `raw_outcomes` — the cluster coordinator's merge input. `index` is the
// fault's position in the registry entry's collapsed fault list (the
// sharding key); the record carries the fault's FINAL outcome fields plus,
// for kDetected, the attributed test pattern. The fault itself never
// travels: both ends derive the same collapsed list from the same
// content-hashed circuit, so the index is a complete name.

struct WireFaultOutcome {
  std::size_t index = 0;
  /// Recorded outcome. `test_index` is not transported (always -1 after
  /// decode); the cluster's replay pipeline re-derives attribution.
  fault::FaultOutcome outcome;
  fault::Pattern test;  ///< non-empty iff outcome.status == kDetected
};

/// Encodes one per-fault record. `test` must be non-null exactly when the
/// outcome is kDetected.
obs::Json encode_fault_outcome(std::size_t index,
                               const fault::FaultOutcome& outcome,
                               const fault::Pattern* test);

/// Inverse of encode_fault_outcome. `num_inputs` sizes the test pattern
/// check. Throws ProtocolError on a malformed record.
WireFaultOutcome decode_fault_outcome(const obs::Json& j,
                                      std::size_t num_inputs);

}  // namespace cwatpg::svc
