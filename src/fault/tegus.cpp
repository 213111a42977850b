#include "fault/tegus.hpp"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "fault/incremental.hpp"
#include "fault/obs_hooks.hpp"
#include "fault/podem.hpp"
#include "obs/trace.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace cwatpg::fault {

const char* to_string(FaultStatus status) {
  switch (status) {
    case FaultStatus::kDetected:
      return "detected";
    case FaultStatus::kUntestable:
      return "untestable";
    case FaultStatus::kDroppedBySim:
      return "dropped-sim";
    case FaultStatus::kDroppedRandom:
      return "dropped-random";
    case FaultStatus::kAborted:
      return "aborted";
    case FaultStatus::kUnreachable:
      return "unreachable";
    case FaultStatus::kUndetermined:
      return "undetermined";
  }
  return "undetermined";
}

const char* to_string(SolveEngine engine) {
  switch (engine) {
    case SolveEngine::kNone:
      return "none";
    case SolveEngine::kSat:
      return "sat";
    case SolveEngine::kSatRetry:
      return "sat-retry";
    case SolveEngine::kPodem:
      return "podem";
    case SolveEngine::kIncremental:
      return "incremental";
  }
  return "none";
}

const char* to_string(AtpgEngine engine) {
  switch (engine) {
    case AtpgEngine::kPerFault:
      return "per-fault";
    case AtpgEngine::kIncremental:
      return "incremental";
  }
  return "per-fault";
}

void AtpgResult::count_statuses() {
  num_detected = num_untestable = num_aborted = num_unreachable =
      num_undetermined = 0;
  for (const FaultOutcome& o : outcomes) {
    switch (o.status) {
      case FaultStatus::kDetected:
      case FaultStatus::kDroppedBySim:
      case FaultStatus::kDroppedRandom:
        ++num_detected;
        break;
      case FaultStatus::kUntestable:
        ++num_untestable;
        break;
      case FaultStatus::kAborted:
        ++num_aborted;
        break;
      case FaultStatus::kUnreachable:
        ++num_unreachable;
        break;
      case FaultStatus::kUndetermined:
        ++num_undetermined;
        break;
    }
  }
}

double AtpgResult::fault_efficiency() const {
  if (outcomes.empty()) return 1.0;
  return static_cast<double>(num_detected + num_untestable +
                             num_unreachable) /
         static_cast<double>(outcomes.size());
}

double AtpgResult::fault_coverage() const {
  if (outcomes.empty()) return 1.0;
  return static_cast<double>(num_detected) /
         static_cast<double>(outcomes.size());
}

FaultOutcome generate_test(const net::Network& netw,
                           const StuckAtFault& fault,
                           const sat::SolverConfig& solver_config,
                           Pattern& test_out) {
  FaultOutcome outcome;
  outcome.fault = fault;

  // Fast-fail when the budget already fired: an abandoned speculative
  // worker drains in O(1) instead of building a miter no one will commit.
  if (solver_config.budget != nullptr) {
    const StopReason r = solver_config.budget->poll();
    if (r != StopReason::kNone) {
      outcome.status = FaultStatus::kAborted;
      outcome.solver_stats.stop_reason = r;
      return outcome;
    }
  }

  // The emitter and the solver it loads are reused across this thread's
  // calls; a reloaded solver searches exactly as a fresh one.
  struct Scratch final : ClauseSink {
    AtpgEmitter emitter;
    sat::Solver solver;
    sat::SolverConfig config;
    void begin(sat::Var num_vars) override { solver.reset(num_vars, config); }
    void add(std::span<const sat::Lit> clause) override {
      solver.add_clause(clause);
    }
  };
  thread_local Scratch scratch;
  scratch.config = solver_config;
  const std::optional<AtpgEmitter::Instance> instance =
      scratch.emitter.emit(netw, fault, scratch);
  if (!instance) {
    outcome.status = FaultStatus::kUnreachable;
    return outcome;
  }
  outcome.sat_vars = instance->num_vars;
  outcome.sat_clauses = instance->num_clauses;

  Timer timer;
  const sat::SolveStatus status = scratch.solver.solve();
  outcome.solve_seconds = timer.seconds();
  outcome.solver_stats = scratch.solver.stats();
  outcome.engine = SolveEngine::kSat;
  outcome.attempts = 1;

  switch (status) {
    case sat::SolveStatus::kSat: {
      outcome.status = FaultStatus::kDetected;
      const std::vector<bool>& model = scratch.solver.model();
      const auto pis = netw.inputs();
      test_out.assign(pis.size(), false);
      for (std::size_t i = 0; i < pis.size(); ++i) {
        const sat::Var v = scratch.emitter.good_var(pis[i]);
        if (v != sat::kNullVar) test_out[i] = model[v];
      }
      break;
    }
    case sat::SolveStatus::kUnsat:
      outcome.status = FaultStatus::kUntestable;
      break;
    case sat::SolveStatus::kUnknown:
      outcome.status = FaultStatus::kAborted;
      break;
  }
  return outcome;
}

namespace {

/// Backtrack cap of the escalation ladder's PODEM fallback.
constexpr std::uint64_t kPodemFallbackBacktracks = 20'000;

/// The one commit step: where a test found by phase 2 or by the escalation
/// ladder enters the result.
struct TestCommitter {
  const net::Network& netw;
  std::span<const StuckAtFault> faults;
  const detail::SimulateFn& simulate;
  bool drop;
  AtpgResult& result;
  std::vector<bool>& dropped;

  /// Commits `test`, found for faults[list[pos]], with one simulate() pass
  /// over that fault and, when dropping, every later fault of `list` whose
  /// status is still `open`. The first hit verifies the test (a miss is an
  /// engine bug: std::logic_error); every other hit drops its fault to
  /// kDroppedBySim under the same test. Returns the number dropped.
  std::size_t commit(std::span<const std::size_t> list, std::size_t pos,
                     FaultStatus open, Pattern test) const {
    std::vector<std::size_t> sim_index{list[pos]};
    if (drop)
      for (std::size_t k = pos + 1; k < list.size(); ++k)
        if (result.outcomes[list[k]].status == open)
          sim_index.push_back(list[k]);
    std::vector<StuckAtFault> sim_faults;
    sim_faults.reserve(sim_index.size());
    for (const std::size_t fi : sim_index) sim_faults.push_back(faults[fi]);
    const std::vector<bool> hit =
        simulate(sim_faults, std::span<const Pattern>(&test, 1));
    if (!hit[0])
      throw std::logic_error("run_atpg: test fails to detect " +
                             to_string(netw, sim_faults[0]));

    const auto index = static_cast<std::int64_t>(result.tests.size());
    result.tests.push_back(std::move(test));
    result.outcomes[sim_index[0]].test_index = index;
    std::size_t num_dropped = 0;
    for (std::size_t j = 1; j < hit.size(); ++j) {
      if (!hit[j]) continue;
      FaultOutcome& outcome = result.outcomes[sim_index[j]];
      outcome.status = FaultStatus::kDroppedBySim;
      outcome.test_index = index;
      dropped[sim_index[j]] = true;
      ++num_dropped;
    }
    return num_dropped;
  }
};

/// Phase 3: the abort-escalation ladder. Re-attacks every still-kAborted
/// fault, in fault order, with geometrically growing conflict caps, then
/// hands the survivors to structural PODEM — a genuinely different search
/// that succeeds on some instances CDCL abandons. Tests found here are
/// committed against the remaining aborted faults, so one recovered test
/// can clear several aborts. Runs on the pipeline thread in both engines,
/// so serial and parallel results stay byte-identical.
void escalate_aborted(const net::Network& netw, const AtpgOptions& options,
                      std::span<const StuckAtFault> faults,
                      detail::SolveProvider& provider,
                      const TestCommitter& committer, AtpgResult& result) {
  // Growing an unlimited conflict cap is meaningless: the first pass
  // already searched without one, so a repeat would abort identically.
  const bool sat_rounds =
      options.escalation_rounds > 0 &&
      options.solver.max_conflicts != Budget::kUnlimited;
  if (!sat_rounds && !options.podem_fallback) return;
  std::vector<std::size_t> aborted;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i)
    if (result.outcomes[i].status == FaultStatus::kAborted)
      aborted.push_back(i);
  if (aborted.empty()) return;
  const Budget* budget = options.budget;

  obs::EventSink* const trace = options.trace;
  obs::Counter* c_retries = nullptr;
  obs::Counter* c_podem = nullptr;
  obs::Histogram* h_solve_ms = nullptr;
  if (options.metrics != nullptr) {
    c_retries = &options.metrics->counter("atpg.escalate.sat_retries");
    c_podem = &options.metrics->counter("atpg.escalate.podem_calls");
    h_solve_ms = &options.metrics->histogram("atpg.sat.solve_ms",
                                             obs::solve_time_bounds_ms());
  }

  for (std::size_t a = 0; a < aborted.size(); ++a) {
    const std::size_t fi = aborted[a];
    FaultOutcome& outcome = result.outcomes[fi];
    if (outcome.status != FaultStatus::kAborted) continue;  // dropped below
    if (budget != nullptr && budget->exhausted()) {
      result.interrupted = true;
      return;
    }

    // A provider may supply the fault's final escalated outcome wholesale
    // (the cluster merge replays recorded worker escalations this way);
    // the built-in ladder is the nullopt fall-through.
    Pattern test;
    if (std::optional<FaultOutcome> recorded = provider.escalate(fi, test)) {
      outcome = *recorded;
    } else {
      std::uint64_t cap = options.solver.max_conflicts;
      for (std::size_t round = 0;
           sat_rounds && round < options.escalation_rounds &&
           outcome.status == FaultStatus::kAborted;
           ++round) {
        cap = saturating_mul(cap, kEscalationGrowth);
        sat::SolverConfig config = detail::per_fault_solver_config(options);
        config.max_conflicts = cap;
        const std::uint32_t attempts = outcome.attempts + 1;
        outcome = generate_test(netw, faults[fi], config, test);
        outcome.engine = SolveEngine::kSatRetry;
        outcome.attempts = attempts;
        if (c_retries != nullptr) {
          c_retries->add(1);
          h_solve_ms->observe(outcome.solve_seconds * 1e3);
        }
        if (budget != nullptr && budget->exhausted()) break;
      }
      if (outcome.status == FaultStatus::kAborted && options.podem_fallback &&
          !(budget != nullptr && budget->exhausted())) {
        PodemOptions podem_options;
        podem_options.max_backtracks = kPodemFallbackBacktracks;
        const PodemResult structural = podem(netw, faults[fi], podem_options);
        ++outcome.attempts;
        if (c_podem != nullptr) c_podem->add(1);
        if (structural.status != PodemStatus::kAborted) {
          outcome.engine = SolveEngine::kPodem;
          outcome.status = structural.status == PodemStatus::kDetected
                               ? FaultStatus::kDetected
                               : FaultStatus::kUntestable;
          test = structural.test;
        }
      }
    }

    if (trace != nullptr)
      trace->event("atpg.escalate",
                   {{"fault", static_cast<std::uint64_t>(fi)},
                    {"status", to_string(outcome.status)},
                    {"engine", to_string(outcome.engine)},
                    {"attempts", outcome.attempts}});
    if (outcome.status == FaultStatus::kAborted) continue;
    ++result.num_escalated;
    if (outcome.status == FaultStatus::kDetected)
      result.num_escalated += committer.commit(
          aborted, a, FaultStatus::kAborted, std::move(test));
  }
}

}  // namespace

namespace detail {

sat::SolverConfig per_fault_solver_config(const AtpgOptions& options) {
  sat::SolverConfig config = options.solver;
  if (config.budget == nullptr) config.budget = options.budget;
  return config;
}

AtpgResult run_atpg_pipeline(const net::Network& netw,
                             const AtpgOptions& options,
                             SolveProvider& provider,
                             const SimulateFn& simulate) {
  Timer run_timer;
  obs::MetricsRegistry* const metrics = options.metrics;
  obs::EventSink* const trace = options.trace;
  obs::Span run_span(trace, "atpg.run");

  AtpgResult result;
  const Budget* budget = options.budget;
  const std::vector<StuckAtFault> faults = collapsed_fault_list(netw);
  if (metrics != nullptr) metrics->counter("atpg.faults").add(faults.size());

  result.outcomes.reserve(faults.size());
  for (const StuckAtFault& f : faults) {
    FaultOutcome o;
    o.fault = f;
    result.outcomes.push_back(o);
  }

  // Optional shard window (AtpgOptions::fault_subset): restrict the run to
  // a strictly increasing subset of fault indices. Out-of-window faults
  // are never simulated or solved and stay kUndetermined; the empty-subset
  // path below is byte-identical to the pre-window pipeline.
  std::vector<std::size_t> scope_index;  ///< in-window indices, ascending
  const bool windowed = !options.fault_subset.empty();
  if (windowed) {
    scope_index.reserve(options.fault_subset.size());
    for (const std::size_t fi : options.fault_subset) {
      if (fi >= faults.size())
        throw std::invalid_argument(
            "run_atpg: fault_subset index out of range");
      if (!scope_index.empty() && fi <= scope_index.back())
        throw std::invalid_argument(
            "run_atpg: fault_subset must be strictly increasing");
      scope_index.push_back(fi);
    }
  }

  // Phase 1: random patterns knock out the easy bulk of the fault list.
  // Skipped when the budget fired before the run even started, so a
  // cancelled run returns without simulating a single pattern.
  std::vector<std::size_t> undetected;
  if (options.random_blocks > 0 && !netw.inputs().empty() &&
      !(budget != nullptr && budget->exhausted())) {
    obs::Span random_span(trace, "atpg.phase.random");
    Rng rng(options.seed);
    std::vector<Pattern> random_patterns;
    random_patterns.reserve(options.random_blocks * 64);
    for (std::size_t b = 0; b < options.random_blocks * 64; ++b) {
      Pattern p(netw.inputs().size());
      for (std::size_t i = 0; i < p.size(); ++i) p[i] = rng.chance(0.5);
      random_patterns.push_back(std::move(p));
    }
    // A windowed run simulates only its own faults: per-fault detection is
    // independent, so each in-window decision equals the full run's.
    std::vector<StuckAtFault> scoped_faults;
    std::span<const StuckAtFault> sim_faults(faults);
    if (windowed) {
      scoped_faults.reserve(scope_index.size());
      for (const std::size_t fi : scope_index)
        scoped_faults.push_back(faults[fi]);
      sim_faults = scoped_faults;
    }
    const std::vector<bool> detected = simulate(sim_faults, random_patterns);
    // Keep only the patterns that contributed; simplest faithful policy:
    // keep all (the paper's experiment is about the SAT instances, not
    // pattern-set compaction).
    std::size_t random_dropped = 0;
    for (std::size_t k = 0; k < sim_faults.size(); ++k) {
      const std::size_t i = windowed ? scope_index[k] : k;
      if (detected[k]) {
        result.outcomes[i].status = FaultStatus::kDroppedRandom;
        ++random_dropped;
      } else {
        undetected.push_back(i);
      }
    }
    if (metrics != nullptr) {
      metrics->counter("atpg.random.patterns").add(random_patterns.size());
      metrics->counter("atpg.random.dropped").add(random_dropped);
    }
    random_span.note({"dropped", static_cast<std::uint64_t>(random_dropped)});
    for (Pattern& p : random_patterns) result.tests.push_back(std::move(p));
  } else if (windowed) {
    undetected = scope_index;
  } else {
    for (std::size_t i = 0; i < faults.size(); ++i) undetected.push_back(i);
  }

  // Phase 2: SAT per remaining fault, each found test committed (verified,
  // and dropping the faults it detects) before the next solve. Commits
  // strictly in work-list order so that which fault is kDetected vs
  // kDroppedBySim — and every test_index — is scheduling-independent.
  // The budget is checked between commits: when it fires the loop stops,
  // `interrupted` is set, and every unreached fault stays kUndetermined —
  // the committed prefix is exactly what an uninterrupted run would have
  // produced for those faults.
  std::vector<bool> dropped(faults.size(), false);
  provider.begin(netw, faults, undetected, dropped);
  const TestCommitter committer{netw, faults, simulate,
                                options.drop_by_simulation, result, dropped};
  // Hoisted instrument handles: one registry lookup here, a relaxed add per
  // solve inside the loop (obs/metrics.hpp hot-path discipline).
  obs::Counter* c_solves = nullptr;
  obs::Counter* c_sim_dropped = nullptr;
  obs::Histogram* h_solve_ms = nullptr;
  if (metrics != nullptr) {
    c_solves = &metrics->counter("atpg.sat.solves");
    c_sim_dropped = &metrics->counter("atpg.sim.dropped");
    h_solve_ms =
        &metrics->histogram("atpg.sat.solve_ms", obs::solve_time_bounds_ms());
  }
  obs::Span sat_span(trace, "atpg.phase.sat");
  for (std::size_t idx = 0; idx < undetected.size(); ++idx) {
    if (budget != nullptr && budget->exhausted()) {
      result.interrupted = true;
      break;
    }
    const std::size_t fi = undetected[idx];
    if (dropped[fi]) continue;
    FaultOutcome& outcome = result.outcomes[fi];

    Pattern test;
    outcome = provider.solve(fi, test);
    if (c_solves != nullptr && outcome.engine != SolveEngine::kNone) {
      c_solves->add(1);
      h_solve_ms->observe(outcome.solve_seconds * 1e3);
    }
    if (trace != nullptr)
      trace->event("atpg.solve",
                   {{"fault", static_cast<std::uint64_t>(fi)},
                    {"status", to_string(outcome.status)},
                    {"vars", static_cast<std::uint64_t>(outcome.sat_vars)},
                    {"conflicts", outcome.solver_stats.conflicts},
                    {"ms", outcome.solve_seconds * 1e3}});
    if (outcome.status != FaultStatus::kDetected) continue;
    const std::size_t num_dropped = committer.commit(
        undetected, idx, FaultStatus::kUndetermined, std::move(test));
    if (c_sim_dropped != nullptr) c_sim_dropped->add(num_dropped);
  }
  provider.end();

  sat_span.finish();

  // Phase 3: re-attack aborted faults (growing conflict caps, then the
  // structural PODEM fallback) while budget remains.
  if (!result.interrupted) {
    obs::Span escalate_span(trace, "atpg.phase.escalate");
    escalate_aborted(netw, options, faults, provider, committer, result);
  }

  result.count_statuses();
  if (metrics != nullptr) {
    // End-of-run rollup: one pass over the outcomes, not per-solve traffic.
    sat::SolverStats total;
    for (const FaultOutcome& o : result.outcomes) total += o.solver_stats;
    record_solver_stats(*metrics, total);
    metrics->counter("atpg.tests").add(result.tests.size());
  }
  result.wall_seconds = run_timer.seconds();
  run_span.note({"faults", static_cast<std::uint64_t>(faults.size())});
  run_span.note({"interrupted", result.interrupted});
  return result;
}

}  // namespace detail

namespace {

/// The serial strategy: solve each fault on demand on the pipeline thread.
class SerialProvider final : public detail::SolveProvider {
 public:
  explicit SerialProvider(const sat::SolverConfig& config) : config_(config) {}

  void begin(const net::Network& netw, std::span<const StuckAtFault> faults,
             std::span<const std::size_t> /*work_list*/,
             const std::vector<bool>& /*dropped*/) override {
    netw_ = &netw;
    faults_ = faults;
  }

  FaultOutcome solve(std::size_t fault_index, Pattern& test_out) override {
    return generate_test(*netw_, faults_[fault_index], config_, test_out);
  }

 private:
  sat::SolverConfig config_;
  const net::Network* netw_ = nullptr;
  std::span<const StuckAtFault> faults_;
};

/// Speculation window per pool worker: in-flight solves beyond the commit
/// frontier. Larger hides commit latency; smaller bounds wasted solves
/// when fault dropping is hot.
constexpr std::size_t kLookahead = 4;

/// One speculative solve a pool worker hands to the pipeline thread. One
/// worker calls run() once; the pipeline thread calls take() at most once,
/// and never on a slot it abandoned.
class SolveSlot {
 public:
  /// Pipeline side: nobody will take() this slot. A worker that has not
  /// started it yet skips the solve.
  void abandon() { abandoned_ = true; }

  /// Worker side: unless abandoned, runs generate_test, keeping what it
  /// throws for take(), books the solve in the calling worker's entry of
  /// `stats.workers` (only ever touched by that worker, so unlocked) and
  /// publishes it.
  void run(const net::Network& netw, const StuckAtFault& fault,
           const sat::SolverConfig& config, ParallelStats& stats) {
    if (abandoned_) return;
    FaultOutcome outcome;
    Pattern test;
    std::exception_ptr error;
    try {
      outcome = generate_test(netw, fault, config, test);
    } catch (...) {
      error = std::current_exception();
    }
    const std::size_t w = ThreadPool::worker_index();
    if (w != ThreadPool::kNotAWorker && w < stats.workers.size()) {
      WorkerStats& ws = stats.workers[w];
      ++ws.solved;
      ws.solve_seconds += outcome.solve_seconds;
      ws.solver += outcome.solver_stats;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    outcome_ = outcome;
    test_ = std::move(test);
    error_ = error;
    done_ = true;
    cv_.notify_one();
  }

  /// Pipeline side: blocks until published and counts the solve committed
  /// in `stats`; then rethrows the worker's exception, or hands over the
  /// test and returns the outcome.
  FaultOutcome take(Pattern& test_out, ParallelStats& stats) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done_; });
    ++stats.committed;
    if (error_) std::rethrow_exception(error_);
    test_out = std::move(test_);
    return outcome_;
  }

 private:
  std::atomic<bool> abandoned_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;  ///< guarded by mutex_, like the three below
  FaultOutcome outcome_;
  Pattern test_;
  std::exception_ptr error_;
};

/// The pool-backed strategy.
///
/// The pipeline thread (the only caller of solve()) keeps a window of up
/// to `window_` solves in flight ahead of the commit frontier. Faults are
/// dispatched in work-list order — and the pool's FIFO queue starts them
/// in that order, so the solve the frontier waits on is never queued
/// behind a later one — skipping any already dropped at dispatch time.
/// Because the dropped bitmap is monotone and written only by the pipeline
/// thread, a fault observed dropped will never be requested: its slot is
/// abandoned at once (a worker that has not started it skips it) and
/// counted as waste when the frontier passes it. The shared_ptr keeps an
/// abandoned slot alive until its pool task returns.
class SpeculativeProvider final : public detail::SolveProvider {
 public:
  SpeculativeProvider(ThreadPool& pool, const sat::SolverConfig& config,
                      ParallelStats& stats)
      : pool_(pool),
        config_(config),
        window_(kLookahead * pool.size()),
        stats_(stats) {}

  void begin(const net::Network& netw, std::span<const StuckAtFault> faults,
             std::span<const std::size_t> work_list,
             const std::vector<bool>& dropped) override {
    netw_ = &netw;
    faults_ = faults;
    work_list_ = work_list;
    dropped_ = &dropped;
    cursor_ = 0;
  }

  FaultOutcome solve(std::size_t fault_index, Pattern& test_out) override {
    // The last commit may have dropped faults already in flight.
    for (const InFlight& f : in_flight_)
      if ((*dropped_)[f.fault]) f.slot->abandon();
    // The pipeline commits in work-list order, so anything in flight
    // ahead of `fault_index` was dropped and will never be requested.
    while (!in_flight_.empty() && in_flight_.front().fault != fault_index) {
      ++stats_.wasted;
      in_flight_.pop_front();
    }
    top_up();
    assert(!in_flight_.empty() && in_flight_.front().fault == fault_index &&
           "pipeline requested a fault outside dispatch order");
    const std::shared_ptr<SolveSlot> slot = in_flight_.front().slot;
    in_flight_.pop_front();
    top_up();  // keep workers fed while we block on this slot
    return slot->take(test_out, stats_);
  }

  /// Phase 2 is over: nothing still in flight will be requested.
  void end() override {
    for (const InFlight& f : in_flight_) f.slot->abandon();
    stats_.wasted += in_flight_.size();
    in_flight_.clear();
  }

 private:
  struct InFlight {
    std::size_t fault;
    std::shared_ptr<SolveSlot> slot;
  };

  /// Dispatches work-list entries (skipping currently-dropped faults)
  /// until the speculation window is full or the list is exhausted.
  void top_up() {
    while (in_flight_.size() < window_ && cursor_ < work_list_.size()) {
      const std::size_t fi = work_list_[cursor_++];
      if ((*dropped_)[fi]) continue;  // monotone: will never be requested
      auto slot = std::make_shared<SolveSlot>();
      in_flight_.push_back({fi, slot});
      ++stats_.dispatched;
      if (in_flight_.size() > stats_.max_in_flight)
        stats_.max_in_flight = in_flight_.size();
      pool_.submit([slot, fault = faults_[fi], netw = netw_, config = config_,
                    stats = &stats_] {
        slot->run(*netw, fault, config, *stats);
      });
    }
  }

  ThreadPool& pool_;
  sat::SolverConfig config_;
  std::size_t window_;
  ParallelStats& stats_;

  const net::Network* netw_ = nullptr;
  std::span<const StuckAtFault> faults_;
  std::span<const std::size_t> work_list_;
  const std::vector<bool>* dropped_ = nullptr;
  std::size_t cursor_ = 0;
  std::deque<InFlight> in_flight_;
};

}  // namespace

AtpgResult run_atpg(const net::Network& netw, const AtpgOptions& options) {
  // `stats` is declared before `pool` deliberately: if the pipeline throws,
  // in-flight worker tasks still write into `stats`, so the pool (whose
  // destructor drains and joins them) must be destroyed first.
  ParallelStats stats;
  std::optional<ThreadPool> pool;
  if (options.threads > 1) {
    pool.emplace(options.threads);
    stats.workers.resize(pool->size());
  }

  const detail::FsimMetrics fsim_metrics(options.metrics);
  const detail::SimulateFn simulate =
      [&netw, &fsim_metrics](std::span<const StuckAtFault> faults,
                             std::span<const Pattern> patterns) {
        FsimStats fs;
        std::vector<bool> detected = fault_simulate(
            netw, faults, patterns, fsim_metrics.enabled() ? &fs : nullptr);
        fsim_metrics.record(fs);
        return detected;
      };

  // The incremental engine keeps its one session on this thread at any
  // thread count. per_fault_solver_config threads the run budget into
  // every solve, on this thread or a worker: when the deadline fires or
  // the caller cancels, in-flight solves observe it at their next poll and
  // queued ones fast-fail, so the pool is never torn down mid-task and the
  // committed prefix stays deterministic.
  std::unique_ptr<detail::SolveProvider> provider;
  if (options.engine == AtpgEngine::kIncremental)
    provider = std::make_unique<detail::IncrementalProvider>(options);
  else if (pool)
    provider = std::make_unique<SpeculativeProvider>(
        *pool, detail::per_fault_solver_config(options), stats);
  else
    provider = std::make_unique<SerialProvider>(
        detail::per_fault_solver_config(options));
  AtpgResult result =
      detail::run_atpg_pipeline(netw, options, *provider, simulate);
  if (!pool) return result;

  pool->wait_idle();  // solves that started before they were abandoned
  if (options.metrics != nullptr) {
    obs::MetricsRegistry& m = *options.metrics;
    m.counter("parallel.dispatched").add(stats.dispatched);
    m.counter("parallel.committed").add(stats.committed);
    m.counter("parallel.wasted").add(stats.wasted);
    m.gauge("parallel.max_in_flight")
        .max_in(static_cast<double>(stats.max_in_flight));
    m.gauge("parallel.workers").max_in(static_cast<double>(pool->size()));
  }
  result.parallel = std::move(stats);
  return result;
}

}  // namespace cwatpg::fault
