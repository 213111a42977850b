#include "fault/tegus.hpp"

#include <optional>
#include <stdexcept>

#include "fault/incremental.hpp"
#include "fault/obs_hooks.hpp"
#include "fault/podem.hpp"
#include "obs/trace.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
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

}  // namespace

AtpgResult run_atpg(const net::Network& netw, const AtpgOptions& options) {
  const detail::FsimMetrics fsim_metrics(options.metrics);
  const auto simulate = [&netw, &fsim_metrics](
                            std::span<const StuckAtFault> faults,
                            std::span<const Pattern> patterns) {
    FsimStats stats;
    std::vector<bool> detected = fault_simulate(
        netw, faults, patterns, fsim_metrics.enabled() ? &stats : nullptr);
    fsim_metrics.record(stats);
    return detected;
  };
  if (options.engine == AtpgEngine::kIncremental) {
    detail::IncrementalProvider provider(options);
    AtpgResult result =
        detail::run_atpg_pipeline(netw, options, provider, simulate);
    provider.finalize();
    return result;
  }
  SerialProvider provider(detail::per_fault_solver_config(options));
  return detail::run_atpg_pipeline(netw, options, provider, simulate);
}

}  // namespace cwatpg::fault
