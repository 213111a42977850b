// The long-lived ATPG daemon: scheduler + request lifecycle.
//
// A Server composes the layers the previous PRs built into one serving
// loop: circuits live in a CircuitRegistry (parse/collapse/encode once,
// amortize across requests), jobs flow through a bounded JobQueue
// (admission control, priorities, per-job Budgets), and `threads` job
// threads each pop the queue and run one job at a time. A job leaves the
// queue only when a thread is free to run it, so the queue's capacity
// bounds every admitted job not yet running, and the priority order is
// decided at that moment. Cancellation and deadlines reuse util::Budget
// end to end: the same token a request deadline arms is the one a
// `cancel` request fires, and the engines' anytime semantics turn it
// into a partial-but-consistent terminal response.
//
// Request lifecycle (see ARCHITECTURE.md for the diagram):
//
//   reader thread                     job thread (× threads)
//   ─────────────                     ──────────────────────
//   read frame
//   ├─ control kinds ── respond inline
//   └─ job kinds: admit ─▶ JobQueue ─▶ pop (priority) ─▶ job executor
//        │ full → `overloaded`                               │
//        └ cancel: fire Budget ─────────────────────────────▶ terminal
//                                                              response
//
// The job executor is the one seam: it turns an admitted run_atpg / fsim
// job into its terminal frame on a job thread. By default the job runs
// in-process on the engines; svc::Cluster plugs in an executor that
// shards it across worker daemons. Everything else — the one job table,
// admission, status, cancel, the exactly-once terminal and the drain —
// is the Server's, whichever executor runs the jobs.
//
// Guarantees:
//   * every admitted job produces exactly ONE terminal response — a
//     result, a `cancelled` error (cancelled while queued), a
//     `shutting_down` error (drained at shutdown), or an `internal` error
//     (including a watchdog detach — see below);
//   * a served run_atpg classification is byte-identical to calling
//     run_atpg directly with the same options (the server adds transport
//     and scheduling, never semantics);
//   * graceful shutdown stops admission, fails still-queued jobs with
//     `shutting_down`, lets in-flight jobs finish, then answers the
//     shutdown request last.
//
// Sessions: the server multiplexes any number of concurrent client
// sessions (connections) onto the one scheduler above. Each session owns a
// Transport; jobs are keyed by (session, request id) because ids are
// client-chosen and two clients may reuse the same id. A session's frames
// enter through handle_session_frame(); closing a session cancels its
// queued and running jobs and suppresses their terminal writes (a dead
// connection gets no bytes). serve() is the classic single-session
// convenience wrapper cwatpg_serve's stdio mode and the in-memory tests
// use; src/net's NetServer drives the session API directly with one
// session per TCP connection.
//
// Thread-safe: serve() is a single-owner entry point (one transport, one
// reader); handle_session_frame() for ONE session must come from one
// thread at a time (sessions are independent). Internals synchronize
// themselves; responses may be written from any job thread
// (Transport::write is thread-safe).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "svc/journal.hpp"
#include "svc/proto.hpp"
#include "svc/queue.hpp"
#include "svc/registry.hpp"
#include "svc/transport.hpp"
#include "util/timer.hpp"

namespace cwatpg::svc {

// ---- the run_atpg job body, shared with the cluster coordinator -----------

/// Runs one `run_atpg` request on `circuit` under `budget` and returns its
/// result, keys `job` through `wall_seconds`. An `engine=incremental` job
/// takes the circuit's shared miter from `registry`, which builds it on
/// first use. The `deadline_seconds` param is the caller's to arm on
/// `budget`. This is the one `run_atpg` job body: a Server runs every
/// in-process job through it, and the cluster coordinator runs a poison
/// window (always per-fault) through it, so that window's records are a
/// worker's by construction. Throws ProtocolError on ill-typed params.
obs::Json run_atpg_request(std::uint64_t job, const CircuitEntry& circuit,
                           CircuitRegistry& registry, const obs::Json& params,
                           Budget& budget, obs::MetricsRegistry& metrics);

/// The `run_atpg` result, keys `job` through `wall_seconds` in wire order,
/// for a served run and for the cluster's merged one. `window` is a
/// windowed run's fault subset (empty = every fault): the counts, the run
/// report and `raw` then cover only those faults, so per-shard results
/// never count another shard's faults as undetermined. `raw` lists one
/// record per covered fault, in index order, when `raw_outcomes` is set;
/// the receiver can tell a complete reply from a truncated one by
/// counting. `wall_seconds` is read from `timer` last.
obs::Json atpg_result_json(std::uint64_t job, const CircuitEntry& circuit,
                           const fault::AtpgResult& result,
                           std::span<const std::size_t> window,
                           const obs::ReportOptions& report, StopReason stop,
                           bool raw_outcomes, const Timer& timer);

/// Where a Server's admitted jobs run. A Server without one runs each job
/// in-process on the engines; svc::Cluster is the other implementation.
class JobExecutor {
 public:
  virtual ~JobExecutor() = default;

  /// Turns one admitted `run_atpg` / `fsim` job into its terminal frame (a
  /// response or an error, under the job's request id). Runs on a Server
  /// job thread and may block until the job is done; the job's Budget
  /// carries its deadline and cancellation. A ProtocolError becomes a
  /// `bad_request` terminal, any other exception an `internal` one.
  virtual obs::Json execute(const Job& job) = 0;

  /// The Server just fired `budget`, the Budget of a job that left the
  /// queue (a cancel, its session closing, the watchdog), so the executor
  /// can stop remote work now instead of at its next poll. Called from
  /// any thread, outside the Server's locks.
  virtual void cancel(const Budget& budget) = 0;

  /// Adds the executor's own keys to a `status` result.
  virtual void describe(obs::Json& status) = 0;
};

struct ServerOptions {
  /// Job threads == max concurrently executing jobs. 0 = auto
  /// (ThreadPool::resolve_thread_count → hardware concurrency).
  std::size_t threads = 0;
  /// Job queue capacity: the most admitted jobs that may wait for a job
  /// thread. Admission beyond it answers `overloaded`.
  std::size_t queue_capacity = 64;
  /// Registry byte budget for retained circuits (LRU-evicted above it).
  std::size_t registry_bytes = std::size_t(256) << 20;
  /// Deadline applied to jobs whose request carries none (0 = unlimited).
  double default_deadline_seconds = 0.0;

  /// Crash-recovery journal path ("" = no journal). On startup the file
  /// is replayed: accepted-but-not-terminal jobs from a previous process
  /// are reported as interrupted (status `interrupted_jobs`) and closed
  /// out in the journal, so a crash never silently forgets work.
  std::string journal_path = {};

  /// Job watchdog (0 = disabled): a RUNNING run_atpg job whose Budget
  /// shows no progress polls for `watchdog_stall_seconds` is presumed
  /// stuck and cancelled; if it STILL makes no progress for
  /// `watchdog_detach_seconds` more, it is detached — its terminal
  /// `internal` error is sent immediately and whatever the wedged worker
  /// eventually produces is dropped by the exactly-once CAS. The sampling
  /// cadence is `watchdog_poll_seconds`.
  ///
  /// Limitation: detach frees the CLIENT, not shutdown. The wedged
  /// worker still occupies its job thread and still counts as in-flight
  /// until it returns, so a graceful drain blocks on a job that ignores
  /// cancellation forever — there is no safe way to kill a thread from
  /// outside. If a drain must be bounded even against such jobs, bound
  /// the process instead (the journal turns the kill into an
  /// `interrupted` report on the next boot).
  double watchdog_stall_seconds = 0.0;
  double watchdog_detach_seconds = 0.0;
  double watchdog_poll_seconds = 0.02;
};

class Server {
 public:
  using SessionId = std::uint64_t;

  /// `executor` (not owned; must outlive the Server) runs the admitted
  /// jobs; null runs them in-process. Starts the job threads and, when
  /// enabled, the watchdog. If a thread fails to start, the threads
  /// already started are joined and the failure is rethrown.
  explicit Server(const ServerOptions& options = {},
                  JobExecutor* executor = nullptr);
  /// Runs the jobs still queued, then joins the threads (drain() instead
  /// fails them with `shutting_down`).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves `transport` until a `shutdown` request completes its drain or
  /// the peer closes the stream (implicit shutdown, no final response).
  /// Closes the transport on return, so the peer observes end-of-stream
  /// after the final frame. Blocking; call from the thread that owns the
  /// session.
  void serve(Transport& transport);

  // ---- multi-session API (what src/net's event loop drives) ----

  /// Registers a session. The server writes this session's responses
  /// through `transport` (which must be thread-safe per the Transport
  /// contract) until close_session(). The shared_ptr keeps the transport
  /// alive for any in-flight terminal writes.
  SessionId open_session(std::shared_ptr<Transport> transport);

  /// Feeds one inbound frame from `session` through the request pipeline:
  /// control kinds are answered inline on the session's transport, job
  /// kinds are admitted (or rejected) — exactly serve()'s reader body.
  /// Malformed requests are answered with `bad_request`, never thrown.
  /// Returns the request id when the frame was a `shutdown` request (the
  /// caller owns the drain and the final response — see drain() /
  /// shutdown_response()); nullopt otherwise.
  std::optional<std::uint64_t> handle_session_frame(SessionId session,
                                                    const obs::Json& frame);

  /// Ends a session: forgets its transport (late terminals are dropped,
  /// not written to a dead peer), cancels its still-queued jobs (terminal
  /// journaled as `cancelled`), and fires the budgets of its running jobs
  /// so they stop at the next poll. Idempotent.
  void close_session(SessionId session);

  /// Stops admission, fails still-queued jobs with `shutting_down`, waits
  /// for every in-flight job's terminal, then joins the job threads and
  /// the watchdog. After drain() the server is done — it cannot serve
  /// again.
  void drain();

  /// The final frame a `shutdown` requester receives after drain():
  /// server status with "drained": true, under the request's id.
  obs::Json shutdown_response(std::uint64_t id);

  /// The server-wide metrics registry. The net layer records its
  /// connection/byte counters here so one `status` frame reports the
  /// whole serving stack.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Resolved job-thread count (the in-flight job cap).
  std::size_t threads() const { return job_threads_.size(); }

  CircuitRegistry& registry() { return registry_; }
  RegistryStats registry_stats() const { return registry_.stats(); }
  QueueStats queue_stats() const { return queue_.stats(); }

 private:
  enum class JobState : std::uint8_t { kQueued, kRunning, kDone };
  using Clock = std::chrono::steady_clock;

  /// (session, client request id) — the composite key all job tracking
  /// uses; ids alone are only unique within a session.
  struct JobKey {
    std::uint64_t session = 0;
    std::uint64_t id = 0;
    bool operator==(const JobKey&) const = default;
  };
  struct JobKeyHash {
    std::size_t operator()(const JobKey& k) const {
      // splitmix-style mix of the two words; either alone is adversarial
      // (client-chosen ids), together they spread fine.
      std::uint64_t x = k.session * 0x9e3779b97f4a7c15ull + k.id;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };

  struct JobRecord {
    JobState state = JobState::kQueued;
    std::uint64_t terminal_seq = 0;  ///< kDone: its place in done_order_
    std::shared_ptr<Budget> budget;
    bool watchdog_eligible = false;  ///< run_atpg polls its Budget; fsim not
    // -- watchdog bookkeeping (guarded by jobs_mutex_) --
    std::uint64_t last_progress = 0;    ///< Budget::progress() last sample
    Clock::time_point last_change{};    ///< when last_progress last moved
    bool watchdog_cancelled = false;    ///< stall escalation step 1 fired
    Clock::time_point cancelled_at{};   ///< when step 1 fired
    bool detached = false;              ///< step 2 fired (terminal sent)
  };

  // -- reader-side handlers (all write their own response) --
  void handle_status(SessionId session, const Request& req);
  void handle_cancel(SessionId session, const Request& req);
  void admit_job(SessionId session, const Request& req);

  // -- execution --
  /// One job thread: pops the queue until it is closed and empty, failing
  /// each job popped after drain() began with `shutting_down`.
  void job_loop();
  void execute_job(const Job& job);
  /// Closes the queue and joins the job threads, then stops and joins the
  /// watchdog. Idempotent.
  void stop_threads();
  /// The in-process job body: the engines, on this job thread.
  obs::Json run_inprocess(const Job& job);
  obs::Json run_atpg_job(const Job& job);
  obs::Json fsim_job(const Job& job);
  /// Fires a job's budget and tells the executor.
  void cancel_job(Budget& budget);

  /// Sends a job's single terminal response and flips its record to kDone.
  /// The compare-and-set under jobs_mutex_ is the exactly-once guarantee.
  /// The write is skipped when the owning session is gone.
  void finish_job(const JobKey& key, const obs::Json& response);

  /// Writes `frame` to the session's transport, or drops it when the
  /// session has been closed (the documented fate of writes to a dead
  /// connection).
  void write_to_session(SessionId session, const obs::Json& frame);

  obs::Json server_status_json();

  // -- resilience --
  void watchdog_loop();
  /// Journal append that never kills the server: an I/O failure is
  /// counted (svc.journal.failures) and serving continues degraded.
  void journal_accepted(std::uint64_t job, const char* kind,
                        const std::string& circuit);
  void journal_terminal(std::uint64_t job, const obs::Json& response);

  ServerOptions options_;
  JobExecutor* executor_;  ///< null = in-process
  CircuitRegistry registry_;
  JobQueue queue_;
  obs::MetricsRegistry metrics_;

  std::atomic<bool> serving_{false};  ///< serve() entered (single-use)
  std::atomic<bool> shutting_down_{false};

  std::unique_ptr<Journal> journal_;  ///< null when journaling is off
  Journal::Recovery recovered_;       ///< prior process's abandoned jobs

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  ///< guarded by watchdog_mutex_

  mutable std::mutex jobs_mutex_;
  std::size_t in_flight_ = 0;  ///< running jobs; guarded by jobs_mutex_
  /// Live sessions' transports, by session id; absence means the session
  /// is closed and its writes are dropped. Guarded by jobs_mutex_.
  std::unordered_map<SessionId, std::shared_ptr<Transport>> sessions_;
  SessionId next_session_ = 1;  ///< guarded by jobs_mutex_
  std::unordered_map<JobKey, JobRecord, JobKeyHash> jobs_;
  /// Terminal records retained for `status` queries, pruned FIFO so a
  /// long-lived server's table stays bounded. Each entry carries its
  /// terminal's sequence number: a reused id's older entry prunes nothing.
  std::deque<std::pair<JobKey, std::uint64_t>> done_order_;
  std::uint64_t terminals_ = 0;
  static constexpr std::size_t kMaxDoneRecords = 1024;

  // Last, after everything they use; joined by stop_threads().
  std::vector<std::thread> job_threads_;
  std::thread watchdog_;
};

}  // namespace cwatpg::svc
