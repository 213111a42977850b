#include "svc/proto.hpp"

#include <string>

#include "util/failpoint.hpp"

namespace cwatpg::svc {

std::string encode_frame(const obs::Json& frame) {
  const std::string payload = frame.dump();
  std::string out = std::to_string(payload.size());
  out.reserve(out.size() + 1 + payload.size());
  out += '\n';
  out += payload;
  return out;
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  // Drop the delivered prefix first: what stays is one unfinished frame.
  buf_.erase(0, head_);
  head_ = 0;
  buf_.append(data, n);
}

bool FrameDecoder::next(obs::Json& frame) {
  while (!have_length_) {
    if (head_ == buf_.size()) return false;
    const char c = buf_[head_++];
    if (digits_ == 0 && CWATPG_FAILPOINT("svc.proto.read.corrupt_len"))
      throw ProtocolError("non-digit in frame length header (injected: "
                          "svc.proto.read.corrupt_len)");
    if (c == '\n') {
      if (digits_ == 0) throw ProtocolError("empty frame length header");
      if (length_ > kMaxFrameBytes)
        throw ProtocolError("frame of " + std::to_string(length_) +
                            " bytes exceeds the " +
                            std::to_string(kMaxFrameBytes) + "-byte limit");
      if (CWATPG_FAILPOINT("svc.proto.read.eof"))
        throw ProtocolError("truncated frame payload (injected: "
                            "svc.proto.read.eof)");
      have_length_ = true;
      break;
    }
    if (c < '0' || c > '9')
      throw ProtocolError("non-digit in frame length header");
    if (++digits_ > kMaxFrameHeaderDigits)
      throw ProtocolError("frame length header too long");
    length_ = length_ * 10 + static_cast<std::size_t>(c - '0');
  }
  if (buffered() < length_) return false;
  const std::string_view payload(buf_.data() + head_, length_);
  head_ += length_;
  length_ = 0;
  digits_ = 0;
  have_length_ = false;
  try {
    frame = obs::Json::parse(payload, kMaxFrameDepth);
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("bad frame payload: ") + e.what());
  }
  return true;
}

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kLoadCircuit:
      return "load_circuit";
    case RequestKind::kRunAtpg:
      return "run_atpg";
    case RequestKind::kFsim:
      return "fsim";
    case RequestKind::kStatus:
      return "status";
    case RequestKind::kCancel:
      return "cancel";
    case RequestKind::kShutdown:
      return "shutdown";
  }
  return "?";
}

std::optional<RequestKind> parse_request_kind(std::string_view name) {
  for (const RequestKind kind :
       {RequestKind::kLoadCircuit, RequestKind::kRunAtpg, RequestKind::kFsim,
        RequestKind::kStatus, RequestKind::kCancel, RequestKind::kShutdown})
    if (name == to_string(kind)) return kind;
  return std::nullopt;
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "bad_request";
    case ErrorCode::kNotFound:
      return "not_found";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kShuttingDown:
      return "shutting_down";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "?";
}

obs::Json Request::to_json() const {
  obs::Json j = obs::Json::object();
  j["schema"] = kRpcSchema;
  j["id"] = id;
  j["kind"] = to_string(kind);
  j["params"] = params;
  return j;
}

Request Request::from_json(const obs::Json& j) {
  if (!j.is_object()) throw ProtocolError("request is not an object");
  const obs::Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kRpcSchema)
    throw ProtocolError("missing or unsupported request schema (want \"" +
                        std::string(kRpcSchema) + "\")");
  Request req;
  const obs::Json* id = j.find("id");
  if (id == nullptr || !id->is_number())
    throw ProtocolError("missing or non-numeric request id");
  try {
    req.id = id->as_u64();
  } catch (const std::exception&) {
    throw ProtocolError("request id must be a non-negative integer");
  }
  const obs::Json* kind = j.find("kind");
  if (kind == nullptr || !kind->is_string())
    throw ProtocolError("missing request kind");
  const auto parsed = parse_request_kind(kind->as_string());
  if (!parsed)
    throw ProtocolError("unknown request kind \"" + kind->as_string() + "\"");
  req.kind = *parsed;
  if (const obs::Json* params = j.find("params"); params != nullptr) {
    if (!params->is_object())
      throw ProtocolError("request params must be an object");
    req.params = *params;
  } else {
    req.params = obs::Json::object();
  }
  return req;
}

obs::Json make_response(std::uint64_t id, obs::Json result) {
  obs::Json j = obs::Json::object();
  j["schema"] = kRpcSchema;
  j["id"] = id;
  j["ok"] = true;
  j["result"] = std::move(result);
  return j;
}

obs::Json make_error(std::uint64_t id, ErrorCode code,
                     std::string_view message) {
  obs::Json j = obs::Json::object();
  j["schema"] = kRpcSchema;
  j["id"] = id;
  j["ok"] = false;
  obs::Json error = obs::Json::object();
  error["code"] = to_string(code);
  error["message"] = message;
  j["error"] = std::move(error);
  return j;
}

std::string encode_bits(const std::vector<bool>& bits) {
  std::string out(bits.size(), '0');
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) out[i] = '1';
  return out;
}

std::vector<bool> decode_bits(std::string_view text,
                              std::size_t expected_size) {
  if (text.size() != expected_size)
    throw ProtocolError("pattern has " + std::to_string(text.size()) +
                        " bits, circuit has " + std::to_string(expected_size) +
                        " inputs");
  std::vector<bool> bits(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '1')
      bits[i] = true;
    else if (text[i] != '0')
      throw ProtocolError("pattern characters must be '0' or '1'");
  }
  return bits;
}

// ---- shard outcome codec --------------------------------------------------

namespace {

fault::FaultStatus parse_fault_status(const std::string& name) {
  using fault::FaultStatus;
  for (const FaultStatus s :
       {FaultStatus::kDetected, FaultStatus::kUntestable,
        FaultStatus::kDroppedBySim, FaultStatus::kDroppedRandom,
        FaultStatus::kAborted, FaultStatus::kUnreachable,
        FaultStatus::kUndetermined})
    if (name == to_string(s)) return s;
  throw ProtocolError("unknown fault status \"" + name + "\"");
}

fault::SolveEngine parse_solve_engine(const std::string& name) {
  using fault::SolveEngine;
  for (const SolveEngine e :
       {SolveEngine::kNone, SolveEngine::kSat, SolveEngine::kSatRetry,
        SolveEngine::kPodem, SolveEngine::kIncremental})
    if (name == to_string(e)) return e;
  throw ProtocolError("unknown solve engine \"" + name + "\"");
}

StopReason parse_stop_reason(const std::string& name) {
  for (const StopReason r :
       {StopReason::kNone, StopReason::kConflictLimit, StopReason::kDeadline,
        StopReason::kCancelled})
    if (name == to_string(r)) return r;
  throw ProtocolError("unknown stop reason \"" + name + "\"");
}

std::uint64_t record_u64(const obs::Json& j, const char* key) {
  const obs::Json* v = j.find(key);
  if (v == nullptr) return 0;
  try {
    return v->as_u64();
  } catch (const std::exception&) {
    throw ProtocolError(std::string("fault record field \"") + key +
                        "\" must be a non-negative integer");
  }
}

std::string record_string(const obs::Json& j, const char* key,
                          const char* fallback) {
  const obs::Json* v = j.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string())
    throw ProtocolError(std::string("fault record field \"") + key +
                        "\" must be a string");
  return v->as_string();
}

}  // namespace

obs::Json encode_fault_outcome(std::size_t index,
                               const fault::FaultOutcome& outcome,
                               const fault::Pattern* test) {
  obs::Json j = obs::Json::object();
  j["i"] = static_cast<std::uint64_t>(index);
  j["st"] = to_string(outcome.status);
  if (outcome.engine != fault::SolveEngine::kNone)
    j["en"] = to_string(outcome.engine);
  if (outcome.attempts != 0)
    j["at"] = static_cast<std::uint64_t>(outcome.attempts);
  if (outcome.sat_vars != 0)
    j["sv"] = static_cast<std::uint64_t>(outcome.sat_vars);
  if (outcome.sat_clauses != 0)
    j["sc"] = static_cast<std::uint64_t>(outcome.sat_clauses);
  if (outcome.solve_seconds != 0.0) j["ss"] = outcome.solve_seconds;
  const sat::SolverStats& s = outcome.solver_stats;
  if (s.decisions != 0) j["d"] = s.decisions;
  if (s.propagations != 0) j["p"] = s.propagations;
  if (s.conflicts != 0) j["c"] = s.conflicts;
  if (s.learnt_clauses != 0) j["lc"] = s.learnt_clauses;
  if (s.learnt_literals != 0) j["ll"] = s.learnt_literals;
  if (s.restarts != 0) j["rs"] = s.restarts;
  if (s.reused_implications != 0) j["ri"] = s.reused_implications;
  if (s.stop_reason != StopReason::kNone) j["sr"] = to_string(s.stop_reason);
  if (test != nullptr) j["t"] = encode_bits(*test);
  return j;
}

WireFaultOutcome decode_fault_outcome(const obs::Json& j,
                                      std::size_t num_inputs) {
  if (!j.is_object()) throw ProtocolError("fault record is not an object");
  WireFaultOutcome rec;
  if (j.find("i") == nullptr)
    throw ProtocolError("fault record is missing its index");
  rec.index = static_cast<std::size_t>(record_u64(j, "i"));
  rec.outcome.status = parse_fault_status(record_string(j, "st", ""));
  rec.outcome.engine = parse_solve_engine(record_string(j, "en", "none"));
  rec.outcome.attempts = static_cast<std::uint32_t>(record_u64(j, "at"));
  rec.outcome.sat_vars = static_cast<std::size_t>(record_u64(j, "sv"));
  rec.outcome.sat_clauses = static_cast<std::size_t>(record_u64(j, "sc"));
  if (const obs::Json* ss = j.find("ss")) {
    if (!ss->is_number())
      throw ProtocolError("fault record field \"ss\" must be a number");
    rec.outcome.solve_seconds = ss->as_double();
  }
  sat::SolverStats& s = rec.outcome.solver_stats;
  s.decisions = record_u64(j, "d");
  s.propagations = record_u64(j, "p");
  s.conflicts = record_u64(j, "c");
  s.learnt_clauses = record_u64(j, "lc");
  s.learnt_literals = record_u64(j, "ll");
  s.restarts = record_u64(j, "rs");
  s.reused_implications = record_u64(j, "ri");
  s.stop_reason = parse_stop_reason(record_string(j, "sr", "none"));
  const bool detected = rec.outcome.status == fault::FaultStatus::kDetected;
  if (const obs::Json* t = j.find("t")) {
    if (!t->is_string() || !detected)
      throw ProtocolError("fault record test must be a \"0101…\" string on "
                          "a detected fault");
    rec.test = decode_bits(t->as_string(), num_inputs);
  } else if (detected) {
    throw ProtocolError("detected fault record is missing its test");
  }
  return rec;
}

}  // namespace cwatpg::svc
