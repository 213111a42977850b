#include "svc/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fsim.hpp"
#include "fault/tegus.hpp"
#include "netlist/bench_io.hpp"
#include "obs/report.hpp"
#include "svc/params.hpp"
#include "util/failpoint.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace cwatpg::svc {

namespace {

/// Best-effort id recovery from a frame that failed request validation, so
/// the error response still correlates when the id itself was well-formed.
std::uint64_t extract_id(const obs::Json& frame) {
  if (!frame.is_object()) return 0;
  const obs::Json* id = frame.find("id");
  if (id == nullptr || !id->is_number()) return 0;
  try {
    return id->as_u64();
  } catch (const std::exception&) {
    return 0;
  }
}

/// Answers a `load_circuit` request against `registry`: the response
/// frame, a result or a `bad_request` / `internal` error.
obs::Json load_circuit(CircuitRegistry& registry, const Request& req) {
  std::shared_ptr<const CircuitEntry> entry;
  bool already_loaded = false;
  try {
    const std::string format = [&] {
      const obs::Json* f = req.params.find("format");
      return f != nullptr && f->is_string() ? f->as_string()
                                            : std::string("bench");
    }();
    if (format != "bench")
      throw ProtocolError("unsupported circuit format \"" + format + "\"");
    const std::string text = param_string_required(req.params, "text");
    const obs::Json* name = req.params.find("name");
    entry = registry.load_bench(
        text,
        name != nullptr && name->is_string() ? name->as_string()
                                             : std::string("circuit"),
        &already_loaded);
  } catch (const ProtocolError& e) {
    return make_error(req.id, ErrorCode::kBadRequest, e.what());
  } catch (const std::bad_alloc&) {
    // Resource exhaustion is OUR failure, not a malformed request —
    // report it as such so clients don't "fix" a valid netlist.
    return make_error(req.id, ErrorCode::kInternal,
                      "out of memory while loading circuit");
  } catch (const std::exception& e) {
    // read_bench rejects malformed netlists with ParseError — the
    // client's input, not our bug.
    return make_error(req.id, ErrorCode::kBadRequest, e.what());
  }
  obs::Json result = obs::Json::object();
  result["circuit"] = entry->to_json();
  // Idempotency ack: true when the registry already held this structural
  // content hash, so replicated loads (the cluster coordinator sends one
  // per worker, possibly repeatedly after failover) are observably no-ops.
  result["already_loaded"] = already_loaded;
  result["registry"] = registry.stats().to_json();
  return make_response(req.id, std::move(result));
}

}  // namespace

// ---- the run_atpg job body ------------------------------------------------

obs::Json run_atpg_request(std::uint64_t job, const CircuitEntry& circuit,
                           CircuitRegistry& registry, const obs::Json& params,
                           Budget& budget, obs::MetricsRegistry& metrics) {
  // One shared params → options mapping (svc/params.hpp) for the server
  // and the cluster coordinator; diverging here would silently break the
  // cluster == single-daemon determinism contract.
  fault::AtpgOptions opts = atpg_options_from_params(params, circuit);
  opts.budget = &budget;
  const bool incremental = opts.engine == fault::AtpgEngine::kIncremental;
  if (incremental) {
    metrics.counter("svc.jobs.incremental").add(1);
    opts.prebuilt_miter = registry.shared_miter(circuit);
  }
  const bool raw_outcomes = param_bool(params, "raw_outcomes", false);

  Timer timer;
  const fault::AtpgResult result = fault::run_atpg(circuit.net, opts);

  obs::ReportOptions ropts;
  ropts.label = "svc/" + circuit.key;
  const bool parallel = opts.threads > 1;
  ropts.engine = incremental ? (parallel ? "parallel-incremental"
                                         : "incremental")
                             : (parallel ? "parallel" : "serial");
  ropts.threads = parallel ? opts.threads : 1;
  ropts.seed = opts.seed;
  return atpg_result_json(job, circuit, result, opts.fault_subset, ropts,
                          budget.poll(), raw_outcomes, timer);
}

obs::Json atpg_result_json(std::uint64_t job, const CircuitEntry& circuit,
                           const fault::AtpgResult& result,
                           std::span<const std::size_t> window,
                           const obs::ReportOptions& report, StopReason stop,
                           bool raw_outcomes, const Timer& timer) {
  // A windowed (sharded) run reports over its window, not the full fault
  // list: out-of-window faults were never this shard's responsibility, so
  // counting them as undetermined would poison coverage/efficiency and
  // make per-shard run_reports non-mergeable.
  fault::AtpgResult pruned;
  const fault::AtpgResult* view = &result;
  if (!window.empty()) {
    pruned.outcomes.reserve(window.size());
    for (const std::size_t fi : window)
      pruned.outcomes.push_back(result.outcomes[fi]);
    pruned.tests = result.tests;
    pruned.count_statuses();
    pruned.num_escalated = result.num_escalated;
    pruned.interrupted = result.interrupted;
    pruned.wall_seconds = result.wall_seconds;
    pruned.parallel = result.parallel;
    view = &pruned;
  }
  const obs::RunReport run_report =
      obs::build_run_report(circuit.net, *view, report);

  obs::Json j = obs::Json::object();
  j["job"] = job;
  j["circuit"] = circuit.key;
  j["engine"] = report.engine;
  j["threads"] = static_cast<std::uint64_t>(report.threads);
  j["interrupted"] = view->interrupted;
  j["stop"] = to_string(stop);
  j["faults"] = static_cast<std::uint64_t>(view->outcomes.size());
  j["num_detected"] = static_cast<std::uint64_t>(view->num_detected);
  j["num_untestable"] = static_cast<std::uint64_t>(view->num_untestable);
  j["num_aborted"] = static_cast<std::uint64_t>(view->num_aborted);
  j["num_undetermined"] =
      static_cast<std::uint64_t>(view->num_undetermined);
  j["coverage"] = view->fault_coverage();
  j["efficiency"] = view->fault_efficiency();
  obs::Json tests = obs::Json::array();
  for (const fault::Pattern& test : result.tests)
    tests.push_back(encode_bits(test));
  j["tests"] = std::move(tests);
  if (raw_outcomes) {
    // Per-fault records keyed by collapsed-fault index — the cluster
    // coordinator's merge input. Every in-scope index is present (drops
    // and undetermined included).
    obs::Json raw = obs::Json::array();
    const std::size_t n = window.empty() ? result.outcomes.size()
                                         : window.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t fi = window.empty() ? k : window[k];
      const fault::FaultOutcome& o = result.outcomes[fi];
      const fault::Pattern* test =
          o.status == fault::FaultStatus::kDetected && o.has_test()
              ? &result.tests[o.test()]
              : nullptr;
      raw.push_back(encode_fault_outcome(fi, o, test));
    }
    j["raw"] = std::move(raw);
  }
  j["run_report"] = run_report.to_json();
  j["wall_seconds"] = timer.seconds();
  return j;
}

// ---- Server ---------------------------------------------------------------

Server::Server(const ServerOptions& options, JobExecutor* executor)
    : options_(options),
      executor_(executor),
      registry_(options.registry_bytes),
      queue_(options.queue_capacity) {
  if (!options_.journal_path.empty()) {
    // Replay first, then open for appending: every accepted record the
    // crashed process left without a terminal is closed out as
    // `interrupted` NOW, so the loss is reported exactly once and a
    // second restart stays quiet about it.
    recovered_ = Journal::recover(options_.journal_path);
    // Seed the seq past everything recovered: seqs stay monotonic across
    // process generations, so recovery's seq-ordered interrupted report
    // is meaningful even for a journal spanning several crashes.
    journal_ = std::make_unique<Journal>(options_.journal_path,
                                         recovered_.max_seq + 1);
    for (const JournalRecord& rec : recovered_.interrupted) {
      try {
        journal_->record_interrupted(rec.job);
      } catch (const std::exception&) {
        metrics_.counter("svc.journal.failures").add(1);
      }
    }
  }
  const std::size_t num_threads =
      ThreadPool::resolve_thread_count(options_.threads);
  job_threads_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i)
      job_threads_.emplace_back([this] { job_loop(); });
    if (options_.watchdog_stall_seconds > 0)
      watchdog_ = std::thread([this] { watchdog_loop(); });
  } catch (...) {
    // A joinable std::thread must not be destroyed: join what started.
    stop_threads();
    throw;
  }
}

Server::~Server() { stop_threads(); }

void Server::stop_threads() {
  queue_.close();
  for (std::thread& t : job_threads_)
    if (t.joinable()) t.join();
  // Last: the watchdog may still need to detach a wedged running job
  // while the joins above wait for it.
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

Server::SessionId Server::open_session(std::shared_ptr<Transport> transport) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const SessionId session = next_session_++;
  sessions_[session] = std::move(transport);
  metrics_.counter("svc.sessions.opened").add(1);
  return session;
}

std::optional<std::uint64_t> Server::handle_session_frame(
    SessionId session, const obs::Json& frame) {
  try {
    const Request req = Request::from_json(frame);
    metrics_.counter("svc.requests." + std::string(to_string(req.kind)))
        .add(1);
    switch (req.kind) {
      case RequestKind::kLoadCircuit:
        write_to_session(session, load_circuit(registry_, req));
        break;
      case RequestKind::kRunAtpg:
      case RequestKind::kFsim:
        admit_job(session, req);
        break;
      case RequestKind::kStatus:
        handle_status(session, req);
        break;
      case RequestKind::kCancel:
        handle_cancel(session, req);
        break;
      case RequestKind::kShutdown:
        return req.id;  // the caller owns the drain and the final frame
    }
  } catch (const ProtocolError& e) {
    // Answered under the frame's id when that id is well-formed.
    write_to_session(session, make_error(extract_id(frame),
                                         ErrorCode::kBadRequest, e.what()));
  }
  return std::nullopt;
}

void Server::close_session(SessionId session) {
  std::vector<JobKey> queued;
  std::vector<std::shared_ptr<Budget>> running;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (sessions_.erase(session) == 0) return;  // already closed
    for (const auto& [key, rec] : jobs_) {
      if (key.session != session) continue;
      if (rec.state == JobState::kQueued)
        queued.push_back(key);
      else if (rec.state == JobState::kRunning && rec.budget != nullptr)
        running.push_back(rec.budget);
    }
  }
  metrics_.counter("svc.sessions.closed").add(1);
  for (const JobKey& key : queued) {
    if (queue_.remove(session, key.id).has_value()) {
      metrics_.counter("svc.jobs.cancelled_queued").add(1);
      // The terminal is journaled for exactly-once accounting; the write
      // is a no-op because the session is gone.
      finish_job(key, make_error(key.id, ErrorCode::kCancelled,
                                 "client disconnected while the job was "
                                 "queued"));
    } else {
      // A job thread popped it between our snapshot and the remove: it
      // WILL run — fire the budget so it stops at its first poll.
      std::shared_ptr<Budget> budget;
      {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        if (const auto it = jobs_.find(key); it != jobs_.end())
          budget = it->second.budget;
      }
      if (budget) cancel_job(*budget);
    }
  }
  for (const std::shared_ptr<Budget>& budget : running) cancel_job(*budget);
}

void Server::serve(Transport& transport) {
  if (serving_.exchange(true) || shutting_down_.load())
    throw std::logic_error("svc::Server::serve is single-use");
  // Non-owning handle: serve()'s caller guarantees the transport outlives
  // the call, and the session closes before serve() returns.
  const SessionId session =
      open_session(std::shared_ptr<Transport>(&transport, [](Transport*) {}));

  // Failpoint domain label: the reader thread's hits on shared sites (the
  // transport's svc.proto.* and net.*) count separately from the
  // client's, so a seeded schedule replays the same way regardless of
  // peer interleaving. A caller that labelled its thread keeps its label
  // (the cluster coordinator's reader is `cluster.reader`).
  fp::DomainScope reader_domain(fp::thread_domain().empty()
                                    ? std::string("svc.reader")
                                    : fp::thread_domain());
  std::optional<std::uint64_t> shutdown_id;
  obs::Json frame;
  while (!shutdown_id) {
    try {
      if (!transport.read(frame)) break;  // peer closed: implicit shutdown
    } catch (const ProtocolError& e) {
      // Framing is lost — nothing later on the stream can be trusted, so
      // report once and treat the session as closed (implicit shutdown).
      transport.write(make_error(0, ErrorCode::kBadRequest, e.what()));
      break;
    }
    shutdown_id = handle_session_frame(session, frame);
  }

  drain();
  if (shutdown_id) transport.write(shutdown_response(*shutdown_id));
  close_session(session);
  // Session over: close our end so the peer's reads drain buffered frames
  // and then see end-of-stream (a duplex client would otherwise block
  // forever waiting for frames that can no longer come).
  transport.close();
}

obs::Json Server::shutdown_response(std::uint64_t id) {
  obs::Json result = server_status_json();
  result["drained"] = true;
  return make_response(id, std::move(result));
}

void Server::drain() {
  // Flag first, so every job thread fails each job it pops from here on.
  // Then close the queue and join: each thread finishes its running job,
  // empties the queue and returns, so every admitted job has sent its
  // terminal response before the shutdown response may be written.
  shutting_down_.store(true);
  stop_threads();
}

// ---- control plane --------------------------------------------------------

void Server::write_to_session(SessionId session, const obs::Json& frame) {
  std::shared_ptr<Transport> transport;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (const auto it = sessions_.find(session); it != sessions_.end())
      transport = it->second;
  }
  // A closed session simply drops the frame — the same contract as
  // writing to a closed Transport, and the reason a dead connection's
  // terminals never touch a reused fd.
  if (transport) transport->write(frame);
}

void Server::handle_status(SessionId session, const Request& req) {
  if (const obs::Json* job = req.params.find("job"); job != nullptr) {
    const std::uint64_t id = param_u64(req.params, "job", 0);
    const char* state = "unknown";
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      // Scoped to the asking session: job ids are per-connection names,
      // so one client can never observe (or probe for) another's jobs.
      if (const auto it = jobs_.find(JobKey{session, id});
          it != jobs_.end()) {
        switch (it->second.state) {
          case JobState::kQueued:
            state = "queued";
            break;
          case JobState::kRunning:
            state = "running";
            break;
          case JobState::kDone:
            state = "done";
            break;
        }
      }
    }
    obs::Json result = obs::Json::object();
    result["job"] = id;
    result["state"] = state;
    write_to_session(session, make_response(req.id, std::move(result)));
    return;
  }
  write_to_session(session, make_response(req.id, server_status_json()));
}

void Server::handle_cancel(SessionId session, const Request& req) {
  const std::uint64_t id = param_u64(req.params, "job", 0);
  if (req.params.find("job") == nullptr)
    throw ProtocolError("param \"job\" (request id) is required");
  const JobKey key{session, id};

  const char* state = "unknown";
  bool fire_budget = false;
  bool removed_from_queue = false;
  std::shared_ptr<Budget> budget;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (const auto it = jobs_.find(key); it != jobs_.end()) {
      switch (it->second.state) {
        case JobState::kQueued:
          if (queue_.remove(session, id)) {
            removed_from_queue = true;
            state = "cancelled";
          } else {
            // Between a job thread's pop and its running-mark: the job
            // WILL run — fire the budget so it stops on its first poll.
            fire_budget = true;
            state = "cancelling";
          }
          break;
        case JobState::kRunning:
          fire_budget = true;
          state = "cancelling";
          break;
        case JobState::kDone:
          state = "done";
          break;
      }
      budget = it->second.budget;
    }
  }
  if (fire_budget && budget) cancel_job(*budget);
  if (removed_from_queue) {
    metrics_.counter("svc.jobs.cancelled_queued").add(1);
    finish_job(key, make_error(id, ErrorCode::kCancelled,
                               "cancelled while queued"));
  }
  obs::Json result = obs::Json::object();
  result["job"] = id;
  result["state"] = state;
  write_to_session(session, make_response(req.id, std::move(result)));
}

obs::Json Server::server_status_json() {
  obs::Json j = obs::Json::object();
  j["threads"] = static_cast<std::uint64_t>(threads());
  j["shutting_down"] = shutting_down_.load();
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    j["in_flight"] = static_cast<std::uint64_t>(in_flight_);
    j["jobs_tracked"] = static_cast<std::uint64_t>(jobs_.size());
    j["sessions"] = static_cast<std::uint64_t>(sessions_.size());
  }
  j["queue"] = queue_.stats().to_json();
  j["registry"] = registry_.stats().to_json();
  if (journal_ != nullptr) {
    obs::Json journal = obs::Json::object();
    journal["path"] = journal_->path();
    journal["recovered_records"] =
        static_cast<std::uint64_t>(recovered_.records);
    journal["recovered_corrupt"] =
        static_cast<std::uint64_t>(recovered_.corrupt);
    j["journal"] = std::move(journal);
    // The previous process's abandoned jobs, surfaced until this process
    // exits: the whole point of the journal is that these are REPORTED,
    // not silently forgotten.
    obs::Json interrupted = obs::Json::array();
    for (const JournalRecord& rec : recovered_.interrupted) {
      obs::Json r = obs::Json::object();
      r["job"] = rec.job;
      if (!rec.kind.empty()) r["kind"] = rec.kind;
      if (!rec.circuit.empty()) r["circuit"] = rec.circuit;
      interrupted.push_back(std::move(r));
    }
    j["interrupted_jobs"] = std::move(interrupted);
  }
  if (executor_ != nullptr) executor_->describe(j);
  j["metrics"] = metrics_.snapshot().to_json();
  return j;
}

// ---- admission ------------------------------------------------------------

void Server::admit_job(SessionId session, const Request& req) {
  if (shutting_down_.load()) {
    write_to_session(session, make_error(req.id, ErrorCode::kShuttingDown,
                                 "server is draining"));
    return;
  }
  const std::string key = param_string_required(req.params, "circuit");
  std::shared_ptr<const CircuitEntry> circuit = registry_.find(key);
  if (circuit == nullptr) {
    write_to_session(session, make_error(req.id, ErrorCode::kNotFound,
                                 "unknown circuit \"" + key +
                                     "\" (load_circuit it first)"));
    return;
  }

  Job job;
  job.request_id = req.id;
  job.session = session;
  job.kind = req.kind;
  job.priority = static_cast<int>(std::clamp<std::int64_t>(
      param_i64(req.params, "priority", 0), -1000, 1000));
  job.circuit = std::move(circuit);
  job.params = req.params;
  job.budget = std::make_shared<Budget>();
  const double deadline = param_double(req.params, "deadline_seconds",
                                     options_.default_deadline_seconds);
  // Armed at admission: queue wait burns deadline, as a latency bound must.
  if (deadline > 0.0) job.budget->set_deadline_after(deadline);

  const JobKey job_key{session, req.id};
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    // Duplicate-live-id detection is per session: ids are client-chosen,
    // so two connections reusing the same id are two distinct jobs.
    if (const auto it = jobs_.find(job_key);
        it != jobs_.end() && it->second.state != JobState::kDone)
      throw ProtocolError("request id " + std::to_string(req.id) +
                          " already names a live job");
    JobRecord rec;
    rec.state = JobState::kQueued;
    rec.budget = job.budget;
    // Only run_atpg engines poll their Budget; an fsim job has no
    // progress heartbeat for the watchdog to read, so it is exempt.
    rec.watchdog_eligible = req.kind == RequestKind::kRunAtpg;
    jobs_[job_key] = std::move(rec);
  }
  // Journal BEFORE the queue may run it: a crash from here on knows about
  // the job. (The reverse order could run — and lose — a job the journal
  // never heard of.)
  journal_accepted(req.id, to_string(req.kind), key);
  if (!queue_.push(std::move(job))) {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_.erase(job_key);
    }
    metrics_.counter("svc.jobs.rejected").add(1);
    obs::Json rejection = make_error(
        req.id, ErrorCode::kOverloaded,
        "job queue is full (capacity " +
            std::to_string(queue_.stats().capacity) + "); retry later");
    journal_terminal(req.id, rejection);
    write_to_session(session, rejection);
    return;
  }
  metrics_.counter("svc.jobs.admitted").add(1);
  // No admission ack: the job's single terminal response is the reply.
}

// ---- execution ------------------------------------------------------------

void Server::job_loop() {
  fp::DomainScope domain("svc.worker");
  for (;;) {
    Job job;  // per iteration: an idle thread pins no circuit
    if (!queue_.pop(job)) return;
    const JobKey key{job.session, job.request_id};
    if (shutting_down_.load()) {
      metrics_.counter("svc.jobs.drained").add(1);
      finish_job(key, make_error(job.request_id, ErrorCode::kShuttingDown,
                                 "server shut down before the job started"));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      const auto it = jobs_.find(key);
      if (it == jobs_.end() || it->second.state != JobState::kQueued)
        continue;  // cancelled while queued; terminal already sent
      it->second.state = JobState::kRunning;
      // Watchdog baseline: a job that NEVER polls is indistinguishable
      // from one wedged on its first instruction, which is the point.
      it->second.last_progress = it->second.budget->progress();
      it->second.last_change = Clock::now();
      ++in_flight_;
    }
    execute_job(job);
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    --in_flight_;
  }
}

void Server::execute_job(const Job& job) {
  Timer timer;
  obs::Json response;
  try {
    response = executor_ != nullptr ? executor_->execute(job)
                                    : run_inprocess(job);
  } catch (const ProtocolError& e) {
    response = make_error(job.request_id, ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    response = make_error(job.request_id, ErrorCode::kInternal, e.what());
  }
  const obs::Json* ok = response.find("ok");
  metrics_
      .counter(ok != nullptr && ok->is_bool() && ok->as_bool()
                   ? "svc.jobs.completed"
                   : "svc.jobs.failed")
      .add(1);
  metrics_
      .histogram("svc.job_seconds",
                 std::vector<double>{0.001, 0.01, 0.1, 1.0, 10.0, 100.0})
      .observe(timer.seconds());
  finish_job(JobKey{job.session, job.request_id}, response);
}

obs::Json Server::run_inprocess(const Job& job) {
  if (CWATPG_FAILPOINT("svc.server.execute.throw"))
    throw std::runtime_error(
        "injected worker failure (svc.server.execute.throw)");
  // Simulated wedge: wall-clock time passes with ZERO Budget progress
  // polls — exactly the signature the watchdog hunts. Bounded by the @ms
  // payload so drains always complete; honors cancellation unless the
  // escalation drill arms svc.server.stall.ignore_cancel, which forces the
  // watchdog past cancel all the way to detach.
  if (const int stall_ms = CWATPG_FAILPOINT_ARG("svc.server.execute.stall");
      stall_ms >= 0) {
    const bool ignore_cancel =
        CWATPG_FAILPOINT("svc.server.stall.ignore_cancel");
    const auto until = Clock::now() + std::chrono::milliseconds(stall_ms);
    while (Clock::now() < until) {
      if (!ignore_cancel && job.budget->cancelled()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return make_response(job.request_id, job.kind == RequestKind::kRunAtpg
                                           ? run_atpg_job(job)
                                           : fsim_job(job));
}

void Server::cancel_job(Budget& budget) {
  budget.cancel();
  if (executor_ != nullptr) executor_->cancel(budget);
}

obs::Json Server::run_atpg_job(const Job& job) {
  obs::Json j = run_atpg_request(job.request_id, *job.circuit, registry_,
                                 job.params, *job.budget, metrics_);
  j["queue"] = queue_.stats().to_json();
  j["registry"] = registry_.stats().to_json();
  return j;
}

obs::Json Server::fsim_job(const Job& job) {
  const CircuitEntry& circuit = *job.circuit;
  const obs::Json* patterns_json = job.params.find("patterns");
  if (patterns_json == nullptr || !patterns_json->is_array())
    throw ProtocolError("param \"patterns\" (array of bit strings) is "
                        "required");
  std::vector<fault::Pattern> patterns;
  patterns.reserve(patterns_json->size());
  for (const obs::Json& p : patterns_json->items()) {
    if (!p.is_string())
      throw ProtocolError("patterns must be \"0101…\" strings");
    patterns.push_back(
        decode_bits(p.as_string(), circuit.net.inputs().size()));
  }

  Timer timer;
  fault::FsimStats stats;
  const std::vector<bool> detected =
      fault::fault_simulate(circuit.net, circuit.faults, patterns, &stats);
  const std::uint64_t num_detected = static_cast<std::uint64_t>(
      std::count(detected.begin(), detected.end(), true));

  obs::Json j = obs::Json::object();
  j["job"] = job.request_id;
  j["circuit"] = circuit.key;
  j["patterns"] = static_cast<std::uint64_t>(patterns.size());
  j["faults"] = static_cast<std::uint64_t>(circuit.faults.size());
  j["detected"] = num_detected;
  j["coverage"] = circuit.faults.empty()
                      ? 0.0
                      : static_cast<double>(num_detected) /
                            static_cast<double>(circuit.faults.size());
  obs::Json fsim = obs::Json::object();
  fsim["resims"] = stats.resims;
  fsim["node_evals"] = stats.node_evals;
  j["fsim"] = std::move(fsim);
  j["wall_seconds"] = timer.seconds();
  j["queue"] = queue_.stats().to_json();
  j["registry"] = registry_.stats().to_json();
  return j;
}

void Server::finish_job(const JobKey& key, const obs::Json& response) {
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(key);
    if (it == jobs_.end() || it->second.state == JobState::kDone)
      return;  // a terminal response was already sent — never send two
    it->second.state = JobState::kDone;
    it->second.terminal_seq = ++terminals_;
    it->second.budget.reset();
    done_order_.emplace_back(key, terminals_);
    while (done_order_.size() > kMaxDoneRecords) {
      const auto [victim, seq] = done_order_.front();
      done_order_.pop_front();
      // A reused id's older entry must not prune its newer terminal.
      if (const auto vit = jobs_.find(victim);
          vit != jobs_.end() && vit->second.state == JobState::kDone &&
          vit->second.terminal_seq == seq)
        jobs_.erase(vit);
    }
  }
  // Durable before visible: the terminal record reaches the journal
  // before the response can reach the peer, so no client ever holds a
  // response the journal would later deny. (The inverse crash window —
  // journaled but unsent — resolves as a loud `interrupted` report, the
  // safe direction.)
  journal_terminal(key.id, response);
  // Skipped silently when the owning session is gone: a dead connection's
  // terminal must never land on a reused fd.
  write_to_session(key.session, response);
}

// ---- resilience -----------------------------------------------------------

void Server::journal_accepted(std::uint64_t job, const char* kind,
                              const std::string& circuit) {
  if (journal_ == nullptr) return;
  try {
    journal_->record_accepted(job, kind, circuit);
  } catch (const std::exception&) {
    // Degraded, not dead: durability is lost but serving continues, and
    // the counter is how an operator finds out.
    metrics_.counter("svc.journal.failures").add(1);
  }
}

void Server::journal_terminal(std::uint64_t job, const obs::Json& response) {
  if (journal_ == nullptr) return;
  std::string outcome = "ok";
  const obs::Json* ok = response.find("ok");
  if (ok != nullptr && ok->is_bool() && !ok->as_bool()) {
    outcome = "error:unknown";
    const obs::Json* error = response.find("error");
    if (error != nullptr && error->is_object()) {
      if (const obs::Json* code = error->find("code");
          code != nullptr && code->is_string())
        outcome = "error:" + code->as_string();
    }
  }
  try {
    journal_->record_terminal(job, outcome);
  } catch (const std::exception&) {
    metrics_.counter("svc.journal.failures").add(1);
  }
}

void Server::watchdog_loop() {
  fp::DomainScope domain("svc.watchdog");
  const std::chrono::duration<double> poll(
      options_.watchdog_poll_seconds > 0 ? options_.watchdog_poll_seconds
                                         : 0.02);
  const std::chrono::duration<double> stall(options_.watchdog_stall_seconds);
  const std::chrono::duration<double> detach(
      options_.watchdog_detach_seconds);

  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  for (;;) {
    watchdog_cv_.wait_for(lock, poll, [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;

    // Decide under jobs_mutex_, act after releasing it: cancel() and
    // finish_job() both synchronize on their own, and finish_job retakes
    // jobs_mutex_ itself.
    std::vector<std::shared_ptr<Budget>> to_cancel;
    std::vector<JobKey> to_detach;
    const Clock::time_point now = Clock::now();
    {
      std::lock_guard<std::mutex> jobs_lock(jobs_mutex_);
      for (auto& [key, rec] : jobs_) {
        if (rec.state != JobState::kRunning || !rec.watchdog_eligible ||
            rec.detached || rec.budget == nullptr)
          continue;
        const std::uint64_t progress = rec.budget->progress();
        if (progress != rec.last_progress) {
          // Alive — even a cancelled job resuming its unwind counts, so
          // escalation stops the moment polls flow again.
          rec.last_progress = progress;
          rec.last_change = now;
          continue;
        }
        if (!rec.watchdog_cancelled) {
          if (now - rec.last_change >= stall) {
            rec.watchdog_cancelled = true;
            rec.cancelled_at = now;
            to_cancel.push_back(rec.budget);
          }
        } else if (options_.watchdog_detach_seconds > 0 &&
                   now - rec.cancelled_at >= detach) {
          rec.detached = true;
          to_detach.push_back(key);
        }
      }
    }
    for (const std::shared_ptr<Budget>& budget : to_cancel) {
      metrics_.counter("svc.watchdog.cancelled").add(1);
      cancel_job(*budget);
    }
    for (const JobKey& key : to_detach) {
      // The terminal response the client gets; whatever the wedged worker
      // eventually produces loses the finish_job CAS and is dropped.
      metrics_.counter("svc.watchdog.detached").add(1);
      finish_job(key,
                 make_error(key.id, ErrorCode::kInternal,
                            "job made no progress within the watchdog "
                            "deadline and ignored cancellation; detached"));
    }
  }
}

}  // namespace cwatpg::svc
