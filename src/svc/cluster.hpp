// The sharded ATPG cluster coordinator: a svc::Server whose job executor
// fans each job out over a pool of worker daemons, with deterministic
// merge and worker failover.
//
// A Cluster owns a Server and is its svc::JobExecutor, so its front end IS
// the daemon's — the same request kinds and response shapes, sessions,
// admission, priorities, status, cancel and drain — and a client cannot
// tell (except by `status`) whether it is talking to one daemon or a
// fleet. Only where a job runs changes. For a per-fault `run_atpg` job,
// execute() on a Server job thread does:
//
//   shard the collapsed fault-id space into contiguous [k·S, (k+1)·S)
//   windows ─▶ dispatch windows to workers (`fault_range` +
//   `raw_outcomes`, drop_by_simulation off so every window solves
//   independently) ─▶ ingest per-fault records ─▶ REPLAY the single-node
//   pipeline over the records ─▶ the job's terminal frame, which the
//   Server sends.
//
// Determinism argument (see ARCHITECTURE.md): per-fault classification is
// a pure function of (circuit, fault, solver options) and random-phase
// drops are per-fault independent, so workers can solve any window
// speculatively. The coordinator then re-runs the exact serial TEGUS
// pipeline — same seed, same work-list order, same drop-by-simulation and
// escalation bookkeeping — with a SolveProvider that returns recorded
// outcomes instead of invoking a solver. Which worker solved what, and in
// which order replies arrived, cannot leak into the result: the merged
// classification, test set and test attribution are identical to a
// single-node run by construction.
//
// Failover and supervision: a worker that dies or wedges (heartbeats — a
// bounded `status` probe on idle workers — turn a wedge into the same
// EOF-shaped signal) forfeits its un-acked shard to a survivor, and the
// SLOT is respawned under exponential backoff with a generation counter:
// its endpoint's respawn factory re-forks the child or re-dials the
// remote daemon, and the new generation lazily re-replicates circuits by
// content hash exactly like a first load. A crash-looping slot (≥ N
// respawn events in a sliding window) is quarantined loudly instead of
// spinning. A shard window that killed two worker generations is POISON:
// it is never dispatched a third time whole — it is bisected to isolate
// the offending fault range, and the residual window is run in-process by
// the coordinator through the worker's own job function
// (svc::run_atpg_request) and read back like a worker reply, so its
// records — and therefore the ReplayProvider merge — are a worker's by
// construction, and the job completes with the poison window named in
// the response instead of failing. Benign shard failures (dropped
// dispatch, truncated reply) fail the job after one redispatch —
// something is wrong with the work, not the worker. Health, generations
// and redispatch counts surface through `status` and the cluster.* /
// cluster.supervisor.* metrics.
//
// Shard lifecycle: every shard reaches ONE settle step whenever it leaves
// the dispatch queue or a worker — reply ingested, benign failure, worker
// death, poison bisection, in-process window, or cancelled while queued.
// settle() drops late work for a job whose terminal is claimed; settles a
// dead job's (cancelled, or past its deadline) unanswered shard one way —
// done with no records for a sharded job's partial merge, `cancelled`
// for a forwarded job; otherwise requeues the shard under the
// one-redispatch budget, bisects it, or runs it in-process; and is the
// only place that detects completion and claims a job's terminal (the
// one other claim is a job's own executor once every worker is gone).
// First-ingest-wins per fault index makes redispatch safe against the
// original reply racing in late: no fault is lost, none is
// double-counted. A cancel (or the job's session closing) reaches the
// executor through JobExecutor::cancel, which drops the job's queued
// shards and sends an out-of-band cancel to every worker running one.
//
// Jobs whose per-fault outcomes are NOT independent of solver-call history
// (engine "incremental") and `fsim` jobs are forwarded whole to one
// worker rather than sharded.
//
// Thread-safe: serve() is the single-owner entry point (or drive server()
// from a netio::NetServer); the Server's threads and one worker thread
// per endpoint synchronize on one coordinator mutex.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "svc/client.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"
#include "svc/supervisor.hpp"
#include "svc/transport.hpp"

namespace cwatpg::svc {

struct ClusterOptions {
  /// Collapsed-fault ids per shard. Small shards spread load and shrink
  /// the redispatch unit; large shards amortize per-request overhead.
  std::size_t shard_size = 512;
  /// Per-shard worker deadline (seconds; 0 = none). A wedged worker then
  /// self-reports `interrupted` instead of holding its shard forever.
  double shard_deadline_seconds = 0.0;
  /// Job deadline applied when the request carries none (0 = unlimited);
  /// the coordinator's ServerOptions::default_deadline_seconds.
  double default_deadline_seconds = 0.0;
  /// Coordinator-side circuit registry budget (it keeps its own parsed
  /// copy of every circuit: the collapsed fault list is the shard space);
  /// the coordinator's ServerOptions::registry_bytes.
  std::size_t registry_bytes = std::size_t(256) << 20;
  /// Retry/backoff policy for the per-worker clients (reused from the
  /// single-daemon resilience layer).
  ClientOptions client;
  /// Worker respawn/heartbeat/quarantine policy (the self-healing layer;
  /// only endpoints carrying a respawn factory are ever respawned).
  SupervisorOptions supervisor;
};

struct ClusterStats {
  std::size_t workers = 0;         ///< configured worker endpoints
  std::size_t alive = 0;           ///< endpoints currently serving
  std::size_t respawning = 0;      ///< slots between generations
  std::size_t quarantined = 0;     ///< slots retired as crash loops
  std::uint64_t shards_dispatched = 0;
  std::uint64_t redispatched = 0;  ///< shards re-dispatched after a failure
  std::uint64_t worker_deaths = 0;
  std::uint64_t respawns = 0;      ///< successful worker respawns
  std::uint64_t heartbeat_failures = 0;
  std::uint64_t poison_windows = 0;   ///< windows executed in-process
  std::uint64_t inprocess_faults = 0; ///< faults solved by the coordinator
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
};

class Cluster : private JobExecutor {
 public:
  /// One worker endpoint the cluster owns. `pid` is the current
  /// generation's process (surfaced through `status` so an operator — or
  /// the kill-drill smoke test — can target a worker process, and reaped
  /// by the supervisor at death detection); 0 for in-process and remote
  /// workers.
  struct WorkerEndpoint {
    /// What a respawn factory hands back: the next generation's
    /// connection (a re-forked child's pipes, a re-dialed socket).
    struct Respawned {
      std::unique_ptr<Transport> transport;
      std::int64_t pid = 0;
    };

    std::unique_ptr<Transport> transport;
    std::string name;
    std::int64_t pid = 0;
    /// Re-creates the endpoint's connection after a death. Called from
    /// the slot's own worker thread, outside the coordinator lock; may
    /// throw (counts as a failed respawn attempt, retried under backoff).
    /// Unset ⇒ the slot is not self-healing: a death shrinks the pool
    /// permanently (the pre-supervision behavior). The embedder injects
    /// this because the svc layer cannot dial TCP itself (net links svc,
    /// never the reverse).
    std::function<Respawned()> respawn;
  };

  /// Starts one thread per worker endpoint. The coordinator's Server
  /// allows one in-flight job per endpoint and takes its registry budget
  /// and default deadline from `options`.
  Cluster(std::vector<WorkerEndpoint> workers, ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs server().serve(transport) — same contract as Server::serve —
  /// then stops the workers, passing the shutdown on to their daemons.
  void serve(Transport& transport);

  /// The coordinator's Server, for a netio::NetServer front end.
  Server& server() { return server_; }

  ClusterStats stats() const;

 private:
  struct JobContext;
  struct WorkerState;

  /// One contiguous fault-id window of one job, queued for dispatch.
  /// A forwarded (non-sharded) job travels as a single whole-job shard.
  struct Shard {
    std::shared_ptr<JobContext> job;
    std::size_t lo = 0;
    std::size_t hi = 0;
    int attempt = 0;  ///< benign failures: 0 = first dispatch, 1 = retry
    /// Worker generations this exact window killed. Two deaths make the
    /// window poison: bisect, or execute the residual in-process.
    int deaths = 0;
  };

  /// How a shard left the dispatch queue or a worker: settle()'s input.
  enum class Fate {
    kAnswered,  ///< its records (a forwarded job: the reply) are in
    kFailed,    ///< benign failure: the work is suspect, not the worker
    kDied,      ///< the worker holding it died
    kUnrun,     ///< taken off the queue unrun: its job is dead
  };
  struct ShardEnd {
    explicit ShardEnd(Fate f = Fate::kUnrun, WorkerState* w = nullptr,
                      std::string why = {})
        : fate(f), worker(w), cause(std::move(why)) {}

    Fate fate;
    /// The worker that answered or failed it; null when the coordinator
    /// ran it in-process or it never left the queue.
    WorkerState* worker;
    std::string cause;  ///< kFailed / kDied: why, for the job's error
    std::vector<WireFaultOutcome> records;  ///< kAnswered, sharded job
    obs::Json reply;  ///< kAnswered, forwarded job: the worker's terminal
  };

  struct WorkerState {
    WorkerEndpoint endpoint;
    std::thread thread;
    bool alive = true;        ///< guarded by mutex_
    bool respawning = false;  ///< dead, but its supervisor is reviving it
    SlotSupervisor supervisor;  ///< guarded by mutex_
    /// Cumulative across generations: a slot's history survives every
    /// respawn (`status` reports per-slot totals plus the generation).
    std::uint64_t shards_completed = 0;
    std::uint64_t redispatches_caused = 0;
    std::uint64_t inflight_worker_id = 0;  ///< worker-side request id, 0=idle
    const JobContext* inflight_job = nullptr;  ///< the job it serves
    std::unordered_set<std::string> loaded;  ///< circuit keys replicated
  };

  enum class Pop { kShard, kIdle, kClosed };

  // -- the job executor the Server calls --
  /// Shards (or forwards) the job, waits until settle() claims its
  /// terminal, and merges a sharded job's records.
  obs::Json execute(const Job& job) override;
  /// Drops the job's queued shards and cancels its in-flight ones.
  void cancel(const Budget& budget) override;
  /// The worker pool and cluster counters, as `status` keys.
  void describe(obs::Json& status) override;

  // -- worker side --
  void worker_loop(WorkerState& w);
  /// Serves one connection generation of `w` until death or queue close.
  /// Returns true on a clean queue close (drain), false on worker death
  /// (on_worker_death already ran; the caller decides respawn).
  bool serve_generation(WorkerState& w);
  /// Backoff-sleeps and calls the slot's respawn factory until a new
  /// generation is live (true) or the slot quarantines / the queue closes
  /// (false — the caller's thread exits).
  bool await_respawn(WorkerState& w);
  /// Idle-tick health probe: a bounded `status` call. False ⇒ the worker
  /// is wedged and must take the death path.
  bool heartbeat(WorkerState& w, Client& client);
  /// Reaps the slot's current child process, if any (prompt zombie
  /// collection at death detection). Returns the exit description for
  /// `status` `last_exit` ("signal 9", "exit 127", "eof" when there is no
  /// process to reap).
  std::string reap_slot(WorkerState& w, bool kill_first);
  /// Runs one shard on `w` and settles it. Returns false when the worker
  /// is dead (the caller runs on_worker_death, which settles the shard).
  bool run_shard(WorkerState& w, Client& client, Shard& shard);
  /// Reads a window's records out of a `run_atpg` result: a reply from
  /// `worker`, or the in-process run's when `worker` is null. A live
  /// job's window must be complete — every index in [lo, hi) once, in
  /// order, not interrupted — or it is a benign failure; a dead job's
  /// window is taken as far as it got.
  ShardEnd read_window(const Shard& shard, const obs::Json& result,
                       WorkerState* worker);
  void on_worker_death(WorkerState& w, Shard& shard);
  /// Runs a poison window on the coordinator through the worker's own job
  /// function (svc::run_atpg_request) and settles what read_window makes
  /// of its result.
  void run_window_inprocess(Shard& shard);
  /// Fails every non-terminal job; fired when the last live-or-reviving
  /// worker is gone. Each waiting execute() claims its own terminal.
  void fail_all_jobs(const std::string& why);
  /// Closes the shard queue and joins the worker threads, which pass the
  /// shutdown on to their daemons. Idempotent.
  void stop_workers();

  // -- job lifecycle --
  /// Blocks for the next dispatchable shard. `idle_timeout_seconds` > 0
  /// bounds the wait (kIdle on expiry — the heartbeat tick). A shard of
  /// a dead job is settled unrun instead of returned.
  Pop pop_shard(Shard& out, double idle_timeout_seconds);
  /// The one settle step every shard reaches when it leaves the queue or
  /// a worker. It drops late work for a job whose terminal is out;
  /// settles a dead job's (cancelled or past its deadline) unanswered
  /// shard one way — done with no records for a sharded job, `cancelled`
  /// for a forwarded one; otherwise applies the fate (ingest, requeue
  /// under the one-redispatch budget, bisect, or run in-process); and is
  /// the only place that detects completion and claims the job's
  /// terminal (an executor whose workers are all gone aside).
  void settle(Shard& shard, ShardEnd end);
  /// Marks `job` finished and drops its still-queued shards; false if its
  /// terminal was already claimed. Exactly-once: the caller holds mutex_.
  bool claim_terminal_locked(JobContext& job);
  obs::Json merge_records(JobContext& job);

  ClusterOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  ///< dispatch queue not-empty / closed
  std::condition_variable done_cv_;   ///< a terminal claimed / workers gone
  std::deque<Shard> queue_;           ///< guarded by mutex_
  bool queue_closed_ = false;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::size_t alive_ = 0;
  /// Slots whose supervisor is between generations (dead but reviving).
  /// They count as capacity: admission and the all-dead sweep treat
  /// alive_ + respawning_ == 0 as "the cluster is gone".
  std::size_t respawning_ = 0;
  /// Why the last worker is gone (fail_all_jobs); empty while any lives.
  std::string workers_gone_;
  ClusterStats stats_;
  /// Declared last: destroyed first, after ~Cluster drained it.
  Server server_;
};

}  // namespace cwatpg::svc
