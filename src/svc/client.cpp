#include "svc/client.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "svc/proto.hpp"
#include "svc/supervisor.hpp"
#include "util/failpoint.hpp"

namespace cwatpg::svc {

namespace {

/// The server's duplicate-live-id rejection (see Server::admit_job). The
/// client treats it as an idempotent-resubmission ack, so match on the
/// stable phrase, not the whole message.
constexpr const char* kDuplicateLivePhrase = "already names a live job";

const obs::Json* error_field(const obs::Json& frame, const char* key) {
  const obs::Json* error = frame.find("error");
  if (error == nullptr || !error->is_object()) return nullptr;
  return error->find(key);
}

bool is_error_code(const obs::Json& frame, const char* code) {
  const obs::Json* ok = frame.find("ok");
  if (ok == nullptr || !ok->is_bool() || ok->as_bool()) return false;
  const obs::Json* c = error_field(frame, "code");
  return c != nullptr && c->is_string() && c->as_string() == code;
}

}  // namespace

Client::Client(Transport& transport, ClientOptions options)
    : transport_(transport),
      options_(std::move(options)),
      jitter_(options_.jitter_seed) {
  if (!options_.sleep_fn) {
    options_.sleep_fn = [](double seconds) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    };
  }
  if (options_.read_timeout_seconds > 0)
    transport_.set_read_timeout(options_.read_timeout_seconds);
}

obs::Json Client::request_json(std::uint64_t id, const std::string& kind,
                               const obs::Json& params) const {
  obs::Json j = obs::Json::object();
  j["schema"] = kRpcSchema;
  j["id"] = id;
  j["kind"] = kind;
  j["params"] = params;
  return j;
}

void Client::send(std::uint64_t id, const std::string& kind,
                  const obs::Json& params) {
  fp::DomainScope domain("svc.client");
  transport_.write(request_json(id, kind, params));
  ++stats_.requests_sent;
}

obs::Json Client::call(const std::string& kind, obs::Json params) {
  const std::uint64_t id = next_id_++;
  send(id, kind, params);
  for (;;) {
    if (const auto it = ready_.find(id); it != ready_.end()) {
      obs::Json response = std::move(it->second);
      ready_.erase(it);
      return response;
    }
    if (!pump())
      throw std::runtime_error("svc::Client: transport closed while "
                               "awaiting a " +
                               kind + " response");
  }
}

std::uint64_t Client::submit(const std::string& kind, obs::Json params) {
  const std::uint64_t id = next_id_++;
  send(id, kind, params);
  pending_[id] = PendingJob{kind, std::move(params), 1};
  return id;
}

std::optional<obs::Json> Client::await(std::uint64_t id) {
  for (;;) {
    if (const auto it = ready_.find(id); it != ready_.end()) {
      obs::Json response = std::move(it->second);
      ready_.erase(it);
      return response;
    }
    if (!pump()) return std::nullopt;
  }
}

std::optional<obs::Json> Client::await_any() {
  for (;;) {
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (pending_.count(it->first) != 0) continue;  // being retried
      obs::Json response = std::move(it->second);
      ready_.erase(it);
      return response;
    }
    if (pending_.empty() && ready_.empty()) return std::nullopt;
    if (!pump()) return std::nullopt;
  }
}

bool Client::pump() {
  obs::Json frame;
  bool have = false;
  {
    fp::DomainScope domain("svc.client");
    try {
      have = transport_.read(frame);
    } catch (const ProtocolError& e) {
      // Client-side framing loss, connection reset, or read timeout:
      // nothing later on the stream can be trusted; treat as
      // end-of-stream so awaits report torn-session. transport_errors
      // (vs `overloaded`) is how callers tell "peer gone" from "peer
      // pushing back".
      ++stats_.session_errors;
      ++stats_.transport_errors;
      stats_.last_transport_error = e.what();
      return false;
    }
  }
  if (!have) {
    // Clean EOF while jobs are pending is still a transport failure from
    // the caller's point of view: the peer vanished owing terminals.
    // Recorded once (awaits for several lost jobs re-enter here).
    if (!pending_.empty() && !eof_with_pending_recorded_) {
      eof_with_pending_recorded_ = true;
      ++stats_.transport_errors;
      stats_.last_transport_error =
          "end-of-stream with " + std::to_string(pending_.size()) +
          " job(s) pending";
    }
    return false;
  }
  route(std::move(frame));
  return true;
}

void Client::route(obs::Json frame) {
  ++stats_.responses;
  const obs::Json* id_field = frame.is_object() ? frame.find("id") : nullptr;
  std::uint64_t id = 0;
  if (id_field != nullptr && id_field->is_number()) {
    try {
      id = id_field->as_u64();
    } catch (const std::exception&) {
      id = 0;
    }
  }
  if (id == 0) {
    // The server reports unattributable protocol damage with id 0; no
    // caller is waiting on it.
    ++stats_.session_errors;
    return;
  }

  const auto pending = pending_.find(id);
  if (pending != pending_.end()) {
    if (is_error_code(frame, "overloaded")) {
      ++stats_.overloaded;
      PendingJob& job = pending->second;
      if (job.attempts < options_.max_attempts) {
        backoff(job.attempts);
        ++job.attempts;
        ++stats_.retries;
        send(id, job.kind, job.params);
        return;  // same id, same params: the idempotent resubmission
      }
      // Retries exhausted: the rejection is the job's terminal answer.
    } else if (is_error_code(frame, "bad_request")) {
      const obs::Json* message = error_field(frame, "message");
      if (message != nullptr && message->is_string() &&
          message->as_string().find(kDuplicateLivePhrase) !=
              std::string::npos) {
        // Our resubmission raced its predecessor, which is alive and will
        // produce the one terminal response. Absorb the ack and wait.
        ++stats_.duplicate_rejects;
        return;
      }
    }
    pending_.erase(pending);
  }
  ready_[id] = std::move(frame);
}

void Client::backoff(std::size_t attempt) {
  const double delay = backoff_delay(BackoffPolicy{}, jitter_, attempt);
  stats_.backoff_seconds += delay;
  options_.sleep_fn(delay);
}

}  // namespace cwatpg::svc
