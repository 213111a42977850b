#include "svc/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "fault/fsim.hpp"
#include "fault/tegus.hpp"
#include "svc/params.hpp"
#include "svc/spawn.hpp"
#include "util/failpoint.hpp"

namespace cwatpg::svc {

namespace {

/// The params for window [lo, hi) of a sharded job, as a worker receives
/// them and as the in-process fallback runs them: solved speculatively (no
/// drop-by-simulation, one thread) and reported as raw per-fault records;
/// the coordinator's replay re-applies dropping.
obs::Json window_params(const obs::Json& job_params, std::size_t lo,
                        std::size_t hi) {
  obs::Json params = job_params;
  obs::Json range = obs::Json::array();
  range.push_back(static_cast<std::uint64_t>(lo));
  range.push_back(static_cast<std::uint64_t>(hi));
  params["fault_range"] = std::move(range);
  params["raw_outcomes"] = true;
  params["drop_by_simulation"] = false;
  params["threads"] = std::uint64_t(1);
  return params;
}

/// Out-of-band cancel for worker-side request `wid`. It travels under
/// request id 0, which the worker daemon answers inline and the owning
/// Client's router drops as a session-level frame; Transport::write is
/// thread-safe, so any thread may send it while a worker thread awaits.
void send_cancel(Transport& worker, std::uint64_t wid) {
  Request cancel;
  cancel.id = 0;
  cancel.kind = RequestKind::kCancel;
  cancel.params = obs::Json::object();
  cancel.params["job"] = wid;
  worker.write(cancel.to_json());
}

/// True when a worker record holds a post-escalation (phase-3) outcome.
/// kSatRetry/kPodem say so directly; a still-kAborted fault went through
/// the ladder iff it accumulated retry attempts — the per-fault engine's
/// main pass always commits attempts == 1, and every configured ladder
/// rung bumps the count. (The incremental engine breaks this invariant,
/// which is one reason incremental jobs are forwarded whole, not sharded.)
bool is_escalated(const fault::FaultOutcome& o) {
  return o.engine == fault::SolveEngine::kSatRetry ||
         o.engine == fault::SolveEngine::kPodem ||
         (o.status == fault::FaultStatus::kAborted && o.attempts > 1);
}

/// Phase-2/3 strategy that replays recorded worker outcomes through the
/// serial TEGUS pipeline. The pipeline keeps ALL its own bookkeeping —
/// random-phase drops, work-list order, drop-by-simulation, test
/// commitment and verification, escalation accounting — so the merged
/// result is the single-node result by construction; this provider merely
/// substitutes a map lookup for a SAT solve.
class ReplayProvider final : public fault::detail::SolveProvider {
 public:
  ReplayProvider(const std::map<std::size_t, WireFaultOutcome>& records,
                 Budget& replay_budget,
                 std::span<const fault::StuckAtFault> faults)
      : records_(records), budget_(replay_budget), faults_(faults) {}

  fault::FaultOutcome solve(std::size_t fault_index,
                            fault::Pattern& test_out) override {
    fault::FaultOutcome o;
    o.fault = faults_[fault_index];
    const auto it = records_.find(fault_index);
    if (it == records_.end()) {
      // No record: the shard owning this fault never completed (cancelled
      // or deadline-fired job). Fire the replay budget so the pipeline
      // stops exactly where an interrupted single-node run would; the
      // untouched kUndetermined outcome is what that run leaves behind.
      budget_.cancel();
      return o;
    }
    const fault::FaultOutcome& rec = it->second.outcome;
    if (is_escalated(rec)) {
      // The record is the fault's FINAL post-escalation outcome; the main
      // pass must observe the abort that routed it into phase 3. These
      // synthetic fields never reach the merged result — escalate() below
      // replaces the outcome wholesale with the recorded final.
      o.status = fault::FaultStatus::kAborted;
      o.engine = fault::SolveEngine::kSat;
      o.attempts = 1;
      return o;
    }
    o = rec;
    o.fault = faults_[fault_index];
    o.test_index = -1;
    if (o.status == fault::FaultStatus::kDetected) test_out = it->second.test;
    return o;
  }

  std::optional<fault::FaultOutcome> escalate(
      std::size_t fault_index, fault::Pattern& test_out) override {
    const auto it = records_.find(fault_index);
    if (it == records_.end()) {
      // Unreachable when solve() ran first (a missing record interrupts
      // the run before phase 3); keep the fault aborted defensively.
      budget_.cancel();
      fault::FaultOutcome o;
      o.fault = faults_[fault_index];
      o.status = fault::FaultStatus::kAborted;
      o.engine = fault::SolveEngine::kSat;
      o.attempts = 1;
      return o;
    }
    fault::FaultOutcome o = it->second.outcome;
    o.fault = faults_[fault_index];
    o.test_index = -1;
    if (o.status == fault::FaultStatus::kDetected) test_out = it->second.test;
    return o;
  }

 private:
  const std::map<std::size_t, WireFaultOutcome>& records_;
  Budget& budget_;
  std::span<const fault::StuckAtFault> faults_;
};

/// The coordinator's Server: one in-flight job per worker endpoint — each
/// running job holds its job thread until its shards are in, so that many
/// keeps every worker busy even when every job is forwarded whole.
ServerOptions coordinator_options(const ClusterOptions& options,
                                  std::size_t workers) {
  ServerOptions s;
  s.threads = workers;
  s.registry_bytes = options.registry_bytes;
  s.default_deadline_seconds = options.default_deadline_seconds;
  return s;
}

}  // namespace

/// Everything the coordinator tracks for one job its executor runs.
/// Mutable fields are guarded by the cluster mutex; `records` becomes
/// read-only once the terminal is claimed (merge then runs lock-free).
struct Cluster::JobContext {
  std::uint64_t id = 0;  ///< the client's request id
  RequestKind kind = RequestKind::kRunAtpg;
  obs::Json params;
  std::shared_ptr<const CircuitEntry> circuit;
  bool sharded = false;
  bool raw_outcomes = false;  ///< client asked for per-fault records
  /// The Server's deadline + cancellation token for the job. A job whose
  /// budget is exhausted is dead: its unanswered shards are settled
  /// without running.
  std::shared_ptr<Budget> budget;
  Timer timer;

  // -- guarded by Cluster::mutex_ --
  std::map<std::size_t, WireFaultOutcome> records;  ///< first ingest wins
  std::size_t shards_total = 0;
  std::size_t shards_accounted = 0;  ///< written by settle() alone
  std::uint64_t redispatches = 0;
  /// Poison windows this job had executed in-process, named in the
  /// response so an operator can see exactly which fault range kept
  /// killing workers.
  std::vector<std::pair<std::size_t, std::size_t>> poison_windows;
  std::uint64_t inprocess_faults = 0;
  bool finished = false;  ///< terminal claimed: late work is dropped
  /// Set with `finished`: a decided error, or a forwarded job's worker
  /// reply; null while a complete sharded job's records await the merge.
  obs::Json terminal;
};

Cluster::Cluster(std::vector<WorkerEndpoint> workers, ClusterOptions options)
    : options_(options),
      server_(coordinator_options(options, workers.size()), this) {
  if (workers.empty())
    throw std::invalid_argument("Cluster: at least one worker is required");
  if (options_.shard_size == 0) options_.shard_size = 1;
  workers_.reserve(workers.size());
  for (WorkerEndpoint& e : workers) {
    auto w = std::make_unique<WorkerState>();
    w->endpoint = std::move(e);
    if (w->endpoint.name.empty())
      w->endpoint.name = "w" + std::to_string(workers_.size());
    w->supervisor = SlotSupervisor(options_.supervisor, workers_.size());
    workers_.push_back(std::move(w));
  }
  alive_ = workers_.size();
  stats_.workers = workers_.size();
  stats_.alive = workers_.size();
  server_.metrics().counter("cluster.workers").add(workers_.size());
  for (const std::unique_ptr<WorkerState>& w : workers_) {
    WorkerState* ws = w.get();
    ws->thread = std::thread([this, ws] { worker_loop(*ws); });
  }
}

Cluster::~Cluster() {
  // Jobs still running need the workers to finish: drain first.
  server_.drain();
  stop_workers();
  for (const std::unique_ptr<WorkerState>& w : workers_)
    if (w->endpoint.transport != nullptr) w->endpoint.transport->close();
}

void Cluster::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (const std::unique_ptr<WorkerState>& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

ClusterStats Cluster::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ClusterStats s = stats_;
  s.alive = alive_;
  s.respawning = respawning_;
  s.quarantined = 0;
  for (const std::unique_ptr<WorkerState>& w : workers_)
    if (w->supervisor.quarantined()) ++s.quarantined;
  return s;
}

void Cluster::serve(Transport& transport) {
  {
    // The coordinator's reader keeps its own failpoint domain, so a
    // schedule aimed at a worker daemon's `svc.reader` sites fires there.
    fp::DomainScope reader_domain("cluster.reader");
    server_.serve(transport);
  }
  stop_workers();
}

// ---- the job executor -----------------------------------------------------

obs::Json Cluster::execute(const Job& job) {
  auto ctx = std::make_shared<JobContext>();
  ctx->id = job.request_id;
  ctx->kind = job.kind;
  ctx->params = job.params;
  ctx->circuit = job.circuit;
  ctx->budget = job.budget;
  if (job.kind == RequestKind::kRunAtpg) {
    // Validate (and classify) the request up front with the SAME mapping
    // the workers apply, so a bad request fails here, not across N shards.
    const fault::AtpgOptions opts =
        atpg_options_from_params(job.params, *job.circuit);
    ctx->raw_outcomes = param_bool(job.params, "raw_outcomes", false);
    // Shard only when per-fault outcomes are history-independent: the
    // per-fault engine over the full fault list. Incremental jobs (one
    // shared solver whose per-fault stats depend on query order) and
    // requests that already carry their own window are forwarded whole.
    ctx->sharded = opts.engine == fault::AtpgEngine::kPerFault &&
                   opts.fault_subset.empty() && !job.circuit->faults.empty();
  }

  obs::Json terminal;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (alive_ + respawning_ == 0)
      // No worker thread is left to pop the queue (and none is between
      // generations): queueing would strand the job.
      return make_error(ctx->id, ErrorCode::kInternal,
                        "all cluster workers died");
    const std::size_t n = ctx->sharded ? ctx->circuit->faults.size() : 1;
    const std::size_t width = ctx->sharded ? options_.shard_size : 1;
    for (std::size_t lo = 0; lo < n; lo += width) {
      Shard s;
      s.job = ctx;
      if (ctx->sharded) {
        s.lo = lo;
        s.hi = std::min(lo + width, n);
      }
      queue_.push_back(std::move(s));
      ++ctx->shards_total;
    }
    queue_cv_.notify_all();
    done_cv_.wait(lock,
                  [&] { return ctx->finished || !workers_gone_.empty(); });
    if (claim_terminal_locked(*ctx))  // every worker is gone
      ctx->terminal =
          make_error(ctx->id, ErrorCode::kInternal, workers_gone_);
    terminal = std::move(ctx->terminal);
  }
  if (!ctx->sharded) {
    // A forwarded job's terminal is its worker's reply, re-addressed to
    // the job's request id.
    terminal["id"] = ctx->id;
    if (const obs::Json* result = terminal.find("result");
        result != nullptr && result->is_object() &&
        result->find("job") != nullptr)
      terminal["result"]["job"] = ctx->id;
  } else if (!terminal.is_object()) {
    try {
      terminal = make_response(ctx->id, merge_records(*ctx));
    } catch (const std::exception& e) {
      terminal = make_error(ctx->id, ErrorCode::kInternal,
                            std::string("cluster merge failed: ") + e.what());
    }
  }
  const obs::Json* ok = terminal.find("ok");
  std::lock_guard<std::mutex> lock(mutex_);
  ++(ok != nullptr && ok->is_bool() && ok->as_bool() ? stats_.jobs_completed
                                                      : stats_.jobs_failed);
  return terminal;
}

void Cluster::cancel(const Budget& budget) {
  std::vector<Shard> unrun;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The job's queued shards will never run: take them off the queue
    // now, so its terminal comes as soon as its in-flight shards return.
    for (auto q = queue_.begin(); q != queue_.end();) {
      if (q->job->budget.get() == &budget) {
        unrun.push_back(std::move(*q));
        q = queue_.erase(q);
      } else {
        ++q;
      }
    }
    // The worker threads own their Clients (and are blocked awaiting
    // shard replies), so the cancel frame is written from here.
    for (const std::unique_ptr<WorkerState>& w : workers_)
      if (w->alive && w->inflight_job != nullptr &&
          w->inflight_job->budget.get() == &budget &&
          w->inflight_worker_id != 0)
        send_cancel(*w->endpoint.transport, w->inflight_worker_id);
  }
  for (Shard& shard : unrun) settle(shard, ShardEnd{Fate::kUnrun});
}

void Cluster::describe(obs::Json& j) {
  j["cluster"] = true;
  // Admitted and not yet answered: the Server's queued and running jobs.
  const std::uint64_t active =
      j.at("in_flight").as_u64() + j.at("queue").at("depth").as_u64();
  obs::Json workers = obs::Json::array();
  std::lock_guard<std::mutex> lock(mutex_);
  j["workers"] = static_cast<std::uint64_t>(workers_.size());
  j["workers_alive"] = static_cast<std::uint64_t>(alive_);
  j["workers_respawning"] = static_cast<std::uint64_t>(respawning_);
  std::uint64_t quarantined = 0;
  for (const std::unique_ptr<WorkerState>& w : workers_) {
    obs::Json wj = obs::Json::object();
    wj["name"] = w->endpoint.name;
    wj["pid"] = static_cast<std::int64_t>(w->endpoint.pid);
    wj["alive"] = w->alive;
    wj["respawning"] = w->respawning;
    wj["quarantined"] = w->supervisor.quarantined();
    if (w->supervisor.quarantined()) ++quarantined;
    wj["generation"] = w->supervisor.generation();
    wj["restarts"] = w->supervisor.restarts();
    wj["last_exit"] = w->supervisor.last_exit();
    // Cumulative across generations: a respawn never erases history.
    wj["shards_completed"] = w->shards_completed;
    wj["redispatches_caused"] = w->redispatches_caused;
    workers.push_back(std::move(wj));
  }
  j["workers_quarantined"] = quarantined;
  j["shards_dispatched"] = stats_.shards_dispatched;
  j["redispatched"] = stats_.redispatched;
  j["worker_deaths"] = stats_.worker_deaths;
  j["respawns"] = stats_.respawns;
  j["heartbeat_failures"] = stats_.heartbeat_failures;
  j["poison_windows"] = stats_.poison_windows;
  j["inprocess_faults"] = stats_.inprocess_faults;
  j["jobs_completed"] = stats_.jobs_completed;
  j["jobs_failed"] = stats_.jobs_failed;
  j["active_jobs"] = active;
  j["queue_depth"] = static_cast<std::uint64_t>(queue_.size());
  j["worker_pool"] = std::move(workers);
}

// ---- shard dispatch -------------------------------------------------------

Cluster::Pop Cluster::pop_shard(Shard& out, double idle_timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const auto ready = [&] { return queue_closed_ || !queue_.empty(); };
    if (idle_timeout_seconds > 0.0) {
      if (!queue_cv_.wait_for(
              lock, std::chrono::duration<double>(idle_timeout_seconds),
              ready))
        return Pop::kIdle;  // the caller's heartbeat tick
    } else {
      queue_cv_.wait(lock, ready);
    }
    if (queue_.empty()) return Pop::kClosed;  // closed and drained
    out = std::move(queue_.front());
    queue_.pop_front();
    if (!out.job->finished && !out.job->budget->exhausted())
      return Pop::kShard;
    // Its job is dead or already answered: never dispatch it.
    lock.unlock();
    settle(out, ShardEnd{Fate::kUnrun});
    lock.lock();
    out = Shard{};
  }
}

void Cluster::worker_loop(WorkerState& w) {
  // One SHARED failpoint domain for all worker threads: `once`/`nth:N`
  // schedules then fire for exactly one thread cluster-wide, which is what
  // "kill ONE worker mid-job" drills mean.
  fp::DomainScope domain("cluster.worker");
  while (true) {
    if (serve_generation(w)) return;  // clean queue close (drain)
    bool reviving = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      reviving = w.respawning;
    }
    // No respawn factory (or the drain began): the PR 8 shrink behavior —
    // this slot is gone for good.
    if (!reviving) return;
    if (!await_respawn(w)) return;  // quarantined or queue closed
  }
}

bool Cluster::serve_generation(WorkerState& w) {
  // The Client is per-generation: it holds a reference to the current
  // transport, which await_respawn replaces.
  Client client(*w.endpoint.transport, options_.client);
  const double tick = options_.supervisor.heartbeat_seconds;
  Shard shard;
  while (true) {
    switch (pop_shard(shard, tick)) {
      case Pop::kClosed:
        // Clean queue close (coordinator drain): pass the shutdown
        // downstream so worker daemons drain and exit instead of waiting
        // on stdin, then collect the child.
        try {
          client.call("shutdown");
        } catch (const std::exception&) {
          // The worker died just before the drain; nothing left to stop.
        }
        w.endpoint.transport->close();
        reap_slot(w, /*kill_first=*/false);
        return true;
      case Pop::kIdle:
        if (heartbeat(w, client)) continue;
        on_worker_death(w, shard);  // shard is empty: nothing to forfeit
        return false;
      case Pop::kShard:
        if (!run_shard(w, client, shard)) {
          on_worker_death(w, shard);
          return false;
        }
        shard = Shard{};  // release the job reference between shards
        continue;
    }
  }
}

bool Cluster::heartbeat(WorkerState& w, Client& client) {
  // Failpoint: the worker wedges — alive but never answering. The probe
  // must convert that into the same EOF-shaped death signal a killed
  // worker gives.
  bool ok = !CWATPG_FAILPOINT("cluster.heartbeat.stall");
  if (ok) {
    if (!w.endpoint.transport->set_read_timeout(
            options_.supervisor.heartbeat_timeout_seconds))
      return true;  // unbounded transport: a probe could hang us — skip
    try {
      client.call("status");
    } catch (const std::exception&) {
      ok = false;  // timeout or torn session
    }
    w.endpoint.transport->set_read_timeout(0.0);
    server_.metrics().counter("cluster.supervisor.heartbeats").add(1);
  }
  if (!ok) {
    server_.metrics().counter("cluster.supervisor.heartbeat_failures").add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.heartbeat_failures;
  }
  return ok;
}

std::string Cluster::reap_slot(WorkerState& w, bool kill_first) {
  std::int64_t pid = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pid = w.endpoint.pid;
  }
  if (pid <= 0) return "eof";  // in-process or remote: nothing to reap
  return reap_child_exit(pid, kill_first).describe();
}

bool Cluster::await_respawn(WorkerState& w) {
  while (true) {
    double delay = 0.0;
    bool exhausted = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (queue_closed_) {
        w.respawning = false;
        --respawning_;
        return false;
      }
      exhausted = w.supervisor.exhausted();
      if (!exhausted) delay = w.supervisor.next_delay();
    }
    if (exhausted) {
      // Crash loop: quarantine the slot loudly instead of spinning.
      bool all_dead = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        w.supervisor.quarantine();
        w.respawning = false;
        --respawning_;
        all_dead = alive_ == 0 && respawning_ == 0;
      }
      server_.metrics().counter("cluster.supervisor.quarantined").add(1);
      if (all_dead) fail_all_jobs("all cluster workers died");
      return false;
    }
    {
      // Interruptible backoff: a drain must not wait out the schedule.
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait_for(lock, std::chrono::duration<double>(delay),
                         [&] { return queue_closed_; });
      if (queue_closed_) {
        w.respawning = false;
        --respawning_;
        return false;
      }
    }
    WorkerEndpoint::Respawned next;
    // Failpoint: the respawn itself fails (fork/exec or re-dial error);
    // counts toward the crash-loop window and backs off harder.
    bool ok = !CWATPG_FAILPOINT("cluster.respawn.fail");
    if (ok) {
      try {
        next = w.endpoint.respawn();
      } catch (const std::exception&) {
        ok = false;
      }
      ok = ok && next.transport != nullptr;
    }
    if (!ok) {
      server_.metrics().counter("cluster.supervisor.respawn_failures").add(1);
      std::lock_guard<std::mutex> lock(mutex_);
      w.supervisor.note_respawn_failure();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // The transport swap is safe here: this slot's Client died with
      // serve_generation, and every other-thread writer (cancel fan-out)
      // checks w.alive under this mutex first.
      w.endpoint.transport = std::move(next.transport);
      w.endpoint.pid = next.pid;
      // New generation, empty replication state: circuits re-replicate
      // lazily by content hash exactly like a first load.
      w.loaded.clear();
      w.supervisor.note_respawned();
      w.alive = true;
      ++alive_;
      w.respawning = false;
      --respawning_;
      ++stats_.respawns;
    }
    server_.metrics().counter("cluster.supervisor.respawns").add(1);
    return true;
  }
}

bool Cluster::run_shard(WorkerState& w, Client& client, Shard& shard) {
  const std::shared_ptr<JobContext> job = shard.job;
  // Failpoint: the dispatch itself is dropped (frame lost before the
  // worker saw it). The worker is fine; the shard takes the redispatch
  // path.
  if (CWATPG_FAILPOINT("cluster.dispatch.drop")) {
    settle(shard, ShardEnd{Fate::kFailed, &w,
                           "dispatch dropped (cluster.dispatch.drop)"});
    return true;
  }
  // Failpoint: fault K is poison — every dispatch of a window containing
  // it kills the worker (`cluster.shard.poison=always@K`). Returning
  // false is exactly the signal a real crash gives, so this drives the
  // full quarantine ladder: death → redispatch → second death → bisect →
  // … → width-1 window executed in-process.
  if (job->sharded) {
    const int poison = CWATPG_FAILPOINT_ARG("cluster.shard.poison");
    if (poison >= 0 && static_cast<std::size_t>(poison) >= shard.lo &&
        static_cast<std::size_t>(poison) < shard.hi)
      return false;
  }
  try {
    // Lazy replication, idempotent by content hash: the first shard of a
    // circuit on this worker ships the bench text; re-sends after a
    // failover ack with already_loaded.
    if (!job->circuit->text.empty() &&
        w.loaded.count(job->circuit->key) == 0) {
      obs::Json p = obs::Json::object();
      p["text"] = job->circuit->text;
      p["name"] = job->circuit->net.name();
      const obs::Json reply = client.call("load_circuit", std::move(p));
      const obs::Json* ok = reply.find("ok");
      if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
        settle(shard, ShardEnd{Fate::kFailed, &w,
                               "worker rejected load_circuit"});
        return true;
      }
      w.loaded.insert(job->circuit->key);
    }

    obs::Json params = job->sharded
                           ? window_params(job->params, shard.lo, shard.hi)
                           : job->params;
    double deadline = 0.0;
    if (job->budget->has_deadline())
      deadline = std::max(job->budget->remaining_seconds(), 1e-3);
    if (job->sharded && options_.shard_deadline_seconds > 0.0)
      deadline = deadline > 0.0
                     ? std::min(deadline, options_.shard_deadline_seconds)
                     : options_.shard_deadline_seconds;
    if (deadline > 0.0) params["deadline_seconds"] = deadline;

    const std::uint64_t wid =
        client.submit(to_string(job->kind), std::move(params));
    bool send_cancel_now = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.shards_dispatched;
      if (shard.attempt > 0)
        server_.metrics().counter("cluster.shards.retried").add(1);
      w.inflight_worker_id = wid;
      w.inflight_job = job.get();
      // Close the submit/cancel race: a cancel that fanned out before we
      // registered the in-flight id missed this worker.
      send_cancel_now = job->budget->cancelled();
    }
    server_.metrics().counter("cluster.shards").add(1);
    if (send_cancel_now) send_cancel(*w.endpoint.transport, wid);

    std::optional<obs::Json> reply = client.await(wid);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      w.inflight_worker_id = 0;
      w.inflight_job = nullptr;
    }
    if (!reply) return false;  // transport closed mid-await: worker died
    // Failpoint: the worker dies right after answering — its reply is
    // lost with it. Exercises un-acked-shard redispatch end to end.
    if (CWATPG_FAILPOINT("cluster.worker.eof")) return false;

    if (!job->sharded) {
      // Forwarded whole job: the worker's reply, ok or not, IS the
      // terminal.
      ShardEnd end{Fate::kAnswered, &w};
      end.reply = std::move(*reply);
      settle(shard, std::move(end));
      return true;
    }
    const obs::Json* okf = reply->find("ok");
    if (okf == nullptr || !okf->is_bool() || !okf->as_bool()) {
      const obs::Json* error = reply->find("error");
      const obs::Json* message =
          error != nullptr && error->is_object() ? error->find("message")
                                                 : nullptr;
      settle(shard, ShardEnd{Fate::kFailed, &w,
                             message != nullptr && message->is_string()
                                 ? message->as_string()
                                 : std::string("worker rejected the shard")});
      return true;
    }
    const obs::Json* result = reply->find("result");
    settle(shard, result != nullptr && result->is_object()
                      ? read_window(shard, *result, &w)
                      : ShardEnd{Fate::kFailed, &w, "malformed shard reply"});
    return true;
  } catch (const ProtocolError&) {
    // Torn frames from a dying peer: the stream is unusable.
    return false;
  } catch (const std::runtime_error&) {
    // Client: transport closed while a call/await was pending.
    return false;
  }
}

Cluster::ShardEnd Cluster::read_window(const Shard& shard,
                                       const obs::Json& result,
                                       WorkerState* worker) {
  // A live job needs the whole window; a dead job's partial window is
  // merged as far as it got.
  const bool live = !shard.job->budget->exhausted();
  const obs::Json* interrupted = result.find("interrupted");
  if (live && interrupted != nullptr && interrupted->is_bool() &&
      interrupted->as_bool())
    // The run hit its own shard deadline (a wedged or overloaded worker):
    // nothing was lost, but the records are not a complete window.
    return ShardEnd{Fate::kFailed, worker,
                    "worker returned an interrupted shard"};
  ShardEnd end{Fate::kAnswered, worker};
  if (const obs::Json* raw = result.find("raw");
      raw != nullptr && raw->is_array()) {
    const std::size_t num_inputs = shard.job->circuit->net.inputs().size();
    for (const obs::Json& r : raw->items()) {
      WireFaultOutcome rec = decode_fault_outcome(r, num_inputs);
      if (rec.index < shard.lo || rec.index >= shard.hi)
        continue;  // out-of-window record: not this shard's to report
      end.records.push_back(std::move(rec));
    }
  }
  // Failpoint: the merge sees a truncated worker reply — drop the tail
  // half of the records. The completeness check below must catch it and
  // route the shard through redispatch, never into a silently-partial
  // merge.
  if (worker != nullptr && CWATPG_FAILPOINT("cluster.merge.partial") &&
      end.records.size() > 1)
    end.records.resize(end.records.size() / 2);
  if (!live) {
    // An interrupted run's unreached fault says nothing.
    std::erase_if(end.records, [](const WireFaultOutcome& rec) {
      return rec.outcome.status == fault::FaultStatus::kUndetermined;
    });
    return end;
  }
  // A complete window reports every index in [lo, hi) exactly once, in
  // ascending order (the server emits them that way).
  bool complete = end.records.size() == shard.hi - shard.lo;
  for (std::size_t k = 0; complete && k < end.records.size(); ++k)
    complete = end.records[k].index == shard.lo + k;
  if (!complete)
    return ShardEnd{Fate::kFailed, worker, "incomplete shard reply"};
  return end;
}

void Cluster::on_worker_death(WorkerState& w, Shard& shard) {
  bool all_dead = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (w.alive) {
      w.alive = false;
      --alive_;
      ++stats_.worker_deaths;
    }
    w.inflight_worker_id = 0;
    w.inflight_job = nullptr;
    // Decide respawn intent INSIDE the death transition: a slot between
    // generations still counts as capacity, so a sibling's concurrent
    // death cannot fire the all-dead sweep while this one is reviving.
    const bool will_respawn = static_cast<bool>(w.endpoint.respawn) &&
                              !w.supervisor.quarantined() && !queue_closed_;
    if (will_respawn && !w.respawning) {
      w.respawning = true;
      ++respawning_;
    }
    all_dead = alive_ == 0 && respawning_ == 0;
  }
  server_.metrics().counter("cluster.worker_deaths").add(1);
  w.endpoint.transport->close();
  // Reap the child NOW — not at coordinator exit — so a kill -9'd worker
  // never lingers as a zombie, and `status` can report how it died.
  const std::string last_exit = reap_slot(w, /*kill_first=*/true);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    w.supervisor.note_death(last_exit);
  }
  // The un-acked shard is the worker's forfeit. Settled BEFORE the
  // all-dead sweep so a poison window's in-process fallback can still
  // complete its job even when this was the last worker.
  if (shard.job != nullptr)
    settle(shard, ShardEnd{Fate::kDied, &w,
                           "worker \"" + w.endpoint.name + "\" died"});
  if (all_dead) fail_all_jobs("all cluster workers died");
}

void Cluster::fail_all_jobs(const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    workers_gone_ = why;
  }
  done_cv_.notify_all();
}

void Cluster::run_window_inprocess(Shard& shard) {
  server_.metrics().counter("cluster.supervisor.inprocess_windows").add(1);
  JobContext& job = *shard.job;
  ShardEnd end;
  try {
    // The worker's own job function on the worker's own params, under the
    // job's budget (cancellation and the deadline reach the fallback as
    // they would a worker), read back like a worker reply. Per-fault
    // classification is a pure function of (circuit, fault, options), so
    // WHERE the window runs cannot leak into the records.
    end = read_window(
        shard,
        run_atpg_request(job.id, *job.circuit, server_.registry(),
                         window_params(job.params, shard.lo, shard.hi),
                         *job.budget, server_.metrics()),
        nullptr);
  } catch (const std::exception& e) {
    end = ShardEnd{Fate::kFailed, nullptr, e.what()};
  }
  settle(shard, std::move(end));
}

// ---- the settle step ------------------------------------------------------

void Cluster::settle(Shard& shard, ShardEnd end) {
  const std::shared_ptr<JobContext> job = shard.job;
  enum class Next { kWait, kRequeue, kBisect, kInProcess, kTerminal };
  Next next = Next::kWait;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // (1) Late work: the job's terminal is already claimed.
    if (job->finished) return;
    obs::Json terminal;  // kTerminal: an error decided here

    if (end.fate == Fate::kAnswered) {
      if (end.worker != nullptr) ++end.worker->shards_completed;
      for (WireFaultOutcome& rec : end.records)
        job->records.emplace(rec.index, std::move(rec));  // first ingest wins
      if (end.worker == nullptr) {
        // The coordinator ran this poison window itself.
        const std::size_t width = shard.hi - shard.lo;
        job->poison_windows.emplace_back(shard.lo, shard.hi);
        job->inprocess_faults += width;
        ++stats_.poison_windows;
        stats_.inprocess_faults += width;
        server_.metrics()
            .counter("cluster.supervisor.inprocess_faults")
            .add(width);
      }
      ++job->shards_accounted;
    } else if (end.fate == Fate::kUnrun || job->budget->exhausted()) {
      // (2) A dead job's unanswered shard: running it is wasted work. A
      // sharded job counts it done with no records, for the partial
      // merge; a forwarded job has no result to send but `cancelled`.
      if (job->sharded) {
        ++job->shards_accounted;
      } else {
        next = Next::kTerminal;
        terminal = make_error(job->id, ErrorCode::kCancelled,
                              end.fate == Fate::kUnrun
                                  ? "cancelled while queued"
                                  : "cancelled before its worker answered");
      }
    } else if (end.fate == Fate::kDied && job->sharded) {
      // (3) A window that killed two worker generations is poison: never
      // dispatched whole again — bisected to isolate the offending fault
      // range, or, at width 1, run by the coordinator itself.
      ++shard.deaths;
      next = shard.deaths < 2 ? Next::kRequeue
             : shard.hi - shard.lo > 1 ? Next::kBisect
                                       : Next::kInProcess;
    } else if (shard.attempt == 0 && shard.deaths < 2) {
      // A benign failure (or a forwarded job's dead worker) gets one
      // redispatch. A poison window failing in-process has nowhere left
      // to run.
      ++shard.attempt;
      next = Next::kRequeue;
    } else {
      next = Next::kTerminal;
      terminal = make_error(
          job->id, ErrorCode::kInternal,
          "shard [" + std::to_string(shard.lo) + ", " +
              std::to_string(shard.hi) + ") failed " +
              (shard.deaths >= 2 ? "in-process: " : "after redispatch: ") +
              end.cause);
    }

    if (next == Next::kRequeue) {
      ++stats_.redispatched;
      ++job->redispatches;
      if (end.worker != nullptr) ++end.worker->redispatches_caused;
      queue_.push_front(shard);
    } else if (next == Next::kBisect) {
      // Each half starts with one inherited death, so a half that kills
      // again quarantines (or bisects further) immediately; the innocent
      // half completes normally on the next worker. Convergence is
      // O(log window) extra deaths.
      const std::size_t mid = shard.lo + (shard.hi - shard.lo) / 2;
      Shard right = shard;
      right.lo = mid;
      right.attempt = 0;
      right.deaths = 1;
      Shard left = right;
      left.lo = shard.lo;
      left.hi = mid;
      ++job->shards_total;  // one window became two
      queue_.push_front(std::move(right));
      queue_.push_front(std::move(left));
    } else if (next == Next::kWait &&
               job->shards_accounted >= job->shards_total) {
      // (4) Every shard is accounted for: the job is complete.
      next = Next::kTerminal;
    }
    if (next == Next::kTerminal) {
      claim_terminal_locked(*job);
      // An error decided above, a forwarded job's worker reply, or — for
      // a complete sharded job — nothing: its executor merges the records.
      job->terminal =
          terminal.is_object() ? std::move(terminal) : std::move(end.reply);
    }
  }

  switch (next) {
    case Next::kWait:
      return;
    case Next::kRequeue:
      server_.metrics().counter("cluster.redispatched").add(1);
      queue_cv_.notify_all();
      return;
    case Next::kBisect:
      server_.metrics().counter("cluster.supervisor.bisections").add(1);
      queue_cv_.notify_all();
      return;
    case Next::kInProcess:
      run_window_inprocess(shard);
      return;
    case Next::kTerminal:
      done_cv_.notify_all();
      return;
  }
}

// ---- job termination ------------------------------------------------------

bool Cluster::claim_terminal_locked(JobContext& job) {
  if (job.finished) return false;
  job.finished = true;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->job.get() == &job)
      it = queue_.erase(it);
    else
      ++it;
  }
  return true;
}

obs::Json Cluster::merge_records(JobContext& job) {
  const CircuitEntry& circuit = *job.circuit;
  // Replay the exact single-node pipeline over the recorded outcomes: the
  // same params → options mapping the workers used, the ORIGINAL
  // drop_by_simulation policy, and a private budget the ReplayProvider
  // fires when a record is missing (cancelled/deadline'd job), so a
  // partial merge is shaped exactly like an interrupted single-node run.
  fault::AtpgOptions opts = atpg_options_from_params(job.params, circuit);
  Budget replay_budget;
  opts.budget = &replay_budget;
  ReplayProvider provider(job.records, replay_budget, circuit.faults);
  const auto simulate = [&circuit](std::span<const fault::StuckAtFault> fs,
                                   std::span<const fault::Pattern> ps) {
    return fault::fault_simulate(circuit.net, fs, ps);
  };
  const fault::AtpgResult result =
      fault::detail::run_atpg_pipeline(circuit.net, opts, provider, simulate);

  obs::ReportOptions ropts;
  ropts.label = "cluster/" + circuit.key;
  ropts.engine = "cluster";
  ropts.threads = stats_.workers;
  ropts.seed = opts.seed;
  obs::Json j = atpg_result_json(job.id, circuit, result, {}, ropts,
                                 job.budget->poll(), job.raw_outcomes,
                                 job.timer);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    obs::Json cluster = obs::Json::object();
    cluster["shards"] = static_cast<std::uint64_t>(job.shards_total);
    cluster["redispatched"] = job.redispatches;
    cluster["workers_alive"] = static_cast<std::uint64_t>(alive_);
    // Name any poison windows: the job completed DESPITE them (their
    // faults ran in-process), and the operator deserves to know which
    // fault range kept killing workers.
    obs::Json poison = obs::Json::array();
    for (const auto& [lo, hi] : job.poison_windows) {
      obs::Json window = obs::Json::array();
      window.push_back(static_cast<std::uint64_t>(lo));
      window.push_back(static_cast<std::uint64_t>(hi));
      poison.push_back(std::move(window));
    }
    cluster["poison_windows"] = std::move(poison);
    cluster["inprocess_faults"] = job.inprocess_faults;
    j["cluster"] = std::move(cluster);
  }
  j["registry"] = server_.registry_stats().to_json();
  return j;
}

}  // namespace cwatpg::svc
