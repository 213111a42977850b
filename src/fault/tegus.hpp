// SAT-based ATPG engine in the style of TEGUS (Stephan et al. [24]).
//
// Flow per circuit: collapse the fault list; optionally knock out the bulk
// of the faults with random patterns; for each remaining fault, build
// C_psi^ATPG (Figure 3), encode it as CIRCUIT-SAT (Figure 2), strengthen
// with the excitation unit clause (the good value of the faulted net must
// be the complement of the stuck value), and hand it to the CDCL solver.
// Each test found, by that pass or by the escalation ladder for aborted
// faults, is committed in one fault-simulation pass over its own fault and
// the still-open faults after it: the pass verifies the test and drops
// every fault it detects.
//
// AtpgOptions::threads > 1 runs the same flow fault-parallel: a FIFO pool
// (util/threadpool.hpp) solves work-list faults speculatively ahead of the
// commit frontier while the calling thread commits them in serial order,
// so the result is byte-identical at any thread count.
//
// The engine records, per SAT instance, the variable count and the solve
// time — exactly the two axes of the paper's Figure 1 scatter.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fault/atpg_circuit.hpp"
#include "fault/fsim.hpp"
#include "sat/solver.hpp"

namespace cwatpg::obs {
class MetricsRegistry;
class EventSink;
}  // namespace cwatpg::obs

namespace cwatpg::fault {

class SharedMiterCnf;  // fault/incremental.hpp

enum class FaultStatus : std::uint8_t {
  kDetected,       ///< SAT instance satisfiable; test extracted & verified
  kUntestable,     ///< SAT instance unsatisfiable (redundant fault)
  kDroppedBySim,   ///< detected by an earlier test via fault simulation
  kDroppedRandom,  ///< detected in the random-pattern pre-phase
  kAborted,        ///< every engine gave up within its resource budget
  kUnreachable,    ///< fault site reaches no primary output
  kUndetermined,   ///< never processed (run interrupted before its turn)
};

/// Which engine produced a fault's final classification. Distinguishes
/// "the first SAT pass got it" from "the escalation ladder had to re-attack
/// with a bigger conflict budget" from "structural PODEM rescued it".
enum class SolveEngine : std::uint8_t {
  kNone,         ///< no per-fault engine ran (random/sim drop, unprocessed)
  kSat,          ///< first-pass CDCL solve
  kSatRetry,     ///< escalation ladder: CDCL with a grown conflict cap
  kPodem,        ///< structural PODEM fallback (last resort)
  kIncremental,  ///< incremental query against the shared miter
};

/// "detected" / "untestable" / "dropped-sim" / "dropped-random" /
/// "aborted" / "unreachable" / "undetermined" — stable names used by
/// RunReport JSON keys; renaming one is a report schema change.
const char* to_string(FaultStatus status);
/// "none" / "sat" / "sat-retry" / "podem" / "incremental" — same
/// stability contract.
const char* to_string(SolveEngine engine);

/// Which phase-2 solve strategy run_atpg plugs into the pipeline.
/// Classification is engine-independent (same Detected / Untestable
/// sets); what changes is how the work is done — one fresh CNF per fault
/// vs. incremental queries against one shared miter — and therefore the
/// per-fault stats, test patterns and wall-clock.
enum class AtpgEngine : std::uint8_t {
  kPerFault,     ///< fresh miter + CNF + solver per fault (TEGUS proper)
  kIncremental,  ///< shared select-instrumented miter, assumption queries
};

/// "per-fault" / "incremental" — the --engine knob's stable spellings.
const char* to_string(AtpgEngine engine);

struct FaultOutcome {
  StuckAtFault fault;
  /// kUndetermined until an engine classifies the fault, so an entry an
  /// interrupted run never reached is distinguishable from a genuine
  /// solver abort (kAborted).
  FaultStatus status = FaultStatus::kUndetermined;
  /// Engine that produced `status` (kNone for drops and kUndetermined).
  SolveEngine engine = SolveEngine::kNone;
  /// Per-fault solve attempts: 1 for a first-pass classification, +1 per
  /// escalation-ladder round, +1 for the PODEM fallback. 0 when no engine
  /// ran on this fault.
  std::uint32_t attempts = 0;
  /// Index into AtpgResult::tests when the fault has an attributed test
  /// (status kDetected or kDroppedBySim), else -1. Prefer has_test() /
  /// test() below: test_index is signed (to encode "none") while
  /// AtpgResult::tests is indexed by size_t, and comparing the two
  /// directly invites signed/unsigned bugs.
  std::int64_t test_index = -1;
  /// SAT instance shape and effort (only when an instance was solved).
  std::size_t sat_vars = 0;
  std::size_t sat_clauses = 0;
  double solve_seconds = 0.0;
  sat::SolverStats solver_stats;

  /// True iff a concrete test pattern is attributed to this fault
  /// (kDetected and kDroppedBySim; kDroppedRandom is covered by the random
  /// block as a whole, not one attributed pattern).
  bool has_test() const { return test_index >= 0; }
  /// test_index as a size_t ready to index AtpgResult::tests.
  /// Precondition: has_test().
  std::size_t test() const {
    assert(has_test());
    return static_cast<std::size_t>(test_index);
  }
};

/// Geometric growth factor of the escalation ladder's conflict cap per
/// round (AtpgOptions::escalation_rounds).
inline constexpr std::uint64_t kEscalationGrowth = 4;

struct AtpgOptions {
  sat::SolverConfig solver;
  /// 64-pattern random blocks applied before SAT (0 disables).
  std::size_t random_blocks = 4;
  /// Drop undetected faults by simulating each new test against them.
  /// Each test is verified in the same pass, with or without dropping (a
  /// test that misses its own fault throws std::logic_error — an engine
  /// bug, not a data error).
  bool drop_by_simulation = true;
  std::uint64_t seed = 0x7e57ab1e;

  /// Optional run-level budget: wall-clock deadline and/or cooperative
  /// cancellation for the WHOLE run, plus hard per-solve effort ceilings.
  /// Not owned; must stay alive until the run returns. When it fires the
  /// engine stops early and returns a partial but internally consistent
  /// AtpgResult with `interrupted` set: every fault processed before the
  /// cutoff keeps its classification, every unreached fault stays
  /// kUndetermined, and the counters match the outcomes. The same pointer
  /// is threaded into every per-fault CDCL solve (and honored by the pool's
  /// in-flight solves when threads > 1), so even a single oversized
  /// instance cannot hold the run past its deadline for long.
  const Budget* budget = nullptr;

  /// Escalation ladder for aborted faults: after the main pass, each
  /// kAborted fault is re-attacked up to this many times, multiplying
  /// solver.max_conflicts by kEscalationGrowth per round (skipped when
  /// solver.max_conflicts is unlimited — re-running the identical search
  /// cannot help). 0 disables the SAT rounds.
  std::size_t escalation_rounds = 3;
  /// After the SAT rounds, fall back to the structural PODEM engine
  /// (fault/podem.hpp, capped at 20,000 backtracks) as a last resort — a
  /// different search (5-valued D-calculus over PI assignments) that
  /// succeeds on some instances CDCL abandons, and vice versa.
  bool podem_fallback = true;

  /// Optional shard window: indices into the collapsed fault list this
  /// run is responsible for, strictly increasing. Empty = all faults (the
  /// default, and byte-identical to the pre-window behavior). Faults
  /// outside the window are never simulated, solved or escalated and stay
  /// kUndetermined; in-window faults classify exactly as they would in a
  /// full run with drop_by_simulation matching (random-phase drops and
  /// per-fault solves are window-independent — this is what lets the
  /// cluster coordinator shard a job by fault position and still merge a
  /// single-node-identical result). An out-of-range or non-increasing
  /// index throws std::invalid_argument.
  std::vector<std::size_t> fault_subset;

  /// Phase-2 solve engine. kPerFault is the default (and the paper's
  /// Figure-1 instrument: one SAT instance per fault). kIncremental routes
  /// phase 2 through the shared select-instrumented miter
  /// (fault/incremental.hpp): same classification, learnt clauses reused
  /// across faults. The escalation ladder is engine-independent — an
  /// incremental abort gets one in-miter retry with a grown cap, then
  /// falls back to the fresh-CNF rounds and PODEM like any other abort.
  AtpgEngine engine = AtpgEngine::kPerFault;
  /// Worker threads. 1 or less runs the serial engine on the calling
  /// thread, with no pool. N > 1 builds a private N-worker pool for the
  /// run: per-fault solves run speculatively ahead of the commit frontier
  /// (kIncremental keeps its one session on the calling thread). Fault
  /// simulation stays on the calling thread. A pure scheduling choice:
  /// the result is byte-identical at any value, except for wall-clock
  /// fields and AtpgResult::parallel.
  std::size_t threads = 1;
  /// Optional prebuilt shared-miter encoding (kIncremental only) — how the
  /// service reuses one encoding per circuit, built by the first
  /// incremental job on it, instead of re-encoding per job. Must have
  /// been built from a structurally identical network
  /// (std::invalid_argument otherwise). Null = build one for the run.
  std::shared_ptr<const SharedMiterCnf> prebuilt_miter;

  /// Optional observability hooks (src/obs). Not owned; must outlive the
  /// run. When `metrics` is set the engine records counters and histograms
  /// (atpg.*, sat.*, fsim.* — see ARCHITECTURE.md "Observability") into
  /// it; when `trace` is set it emits structured span/solve events. Both
  /// default to nullptr, in which case every instrumentation site is a
  /// single pointer test — the zero-overhead-when-disabled contract.
  /// Neither hook ever influences classification: results are bit-
  /// identical with hooks on, off, or any mix.
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventSink* trace = nullptr;
};

/// What one pool worker did during a run with threads > 1.
struct WorkerStats {
  std::size_t solved = 0;        ///< SAT instances this worker completed
  double solve_seconds = 0.0;    ///< sum of per-instance solve times
  sat::SolverStats solver;       ///< aggregated CDCL counters
};

/// Scheduling telemetry of a run with threads > 1; all zero (and no
/// workers) for a serial run. Solves the pool ran but whose faults were
/// dropped first are counted in the workers, not in the outcomes: the
/// solves that actually ran are the sum of workers[].solved. An
/// engine=incremental run solves on the calling thread, so its counters
/// and per-worker entries stay 0 (its incremental.* metrics count the
/// queries).
struct ParallelStats {
  std::vector<WorkerStats> workers;  ///< one entry per pool worker
  std::size_t dispatched = 0;  ///< speculative solves handed to the pool
  std::size_t committed = 0;   ///< solves whose outcome entered the result
  /// Dispatched solves discarded because their fault was dropped first. A
  /// worker skips a discarded solve it has not started yet.
  std::size_t wasted = 0;
  std::size_t max_in_flight = 0;  ///< peak speculative solves in flight
};

struct AtpgResult {
  std::vector<FaultOutcome> outcomes;  ///< one per collapsed fault
  std::vector<Pattern> tests;          ///< every pattern that detected something
  std::size_t num_detected = 0;        ///< kDetected + both dropped kinds
  std::size_t num_untestable = 0;
  std::size_t num_aborted = 0;
  std::size_t num_unreachable = 0;
  std::size_t num_undetermined = 0;  ///< unprocessed (interrupted run)
  /// Faults the main pass aborted that the escalation ladder (SAT retry or
  /// PODEM fallback) later resolved to kDetected/kUntestable, plus aborted
  /// faults dropped by a ladder-found test.
  std::size_t num_escalated = 0;
  /// True iff the run budget (deadline/cancellation) fired before every
  /// fault was processed. The result is still internally consistent —
  /// counters match outcomes, every test_index is valid — just partial.
  bool interrupted = false;
  /// Whole-run wall-clock, stamped by the pipeline on return — what
  /// obs::build_run_report() uses unless the caller timed the run itself.
  double wall_seconds = 0.0;
  /// Scheduling telemetry, like wall_seconds not part of the
  /// classification: all zero unless AtpgOptions::threads > 1.
  ParallelStats parallel;

  /// Sets num_detected, num_untestable, num_aborted, num_unreachable and
  /// num_undetermined from `outcomes` in one pass: the pipeline's only
  /// writer of those counters (num_escalated is the ladder's own count).
  void count_statuses();

  /// Fault efficiency: (detected + proven untestable + unreachable) / all.
  double fault_efficiency() const;
  /// Fault coverage: detected / all.
  double fault_coverage() const;
};

/// Runs the full ATPG flow on `net`, on options.threads threads.
///
/// With threads > 1 every FaultOutcome status, test_index, sat_vars /
/// sat_clauses and solver_stats, and every Pattern in AtpgResult::tests,
/// match the one-thread run bit for bit (solve_seconds, being wall-clock,
/// differs), because generate_test is a pure function of (net, fault,
/// solver config), commits happen in serial order, and the random phase
/// uses the serial RNG stream untouched. A budget that fires reaches every
/// in-flight solve through its polls; the run then returns the committed
/// prefix, exactly as the serial engine does. The pool is drained before
/// the call returns.
///
/// Thread-safe: yes for concurrent calls on distinct (or even the same)
/// `net` — the flow allocates all mutable state locally (each call owns
/// its pool) and Network is immutable after construction.
AtpgResult run_atpg(const net::Network& net, const AtpgOptions& options = {});

/// Generates a test for a single fault (no dropping, no random phase).
/// Returns the outcome plus, when detected, the pattern through `test_out`.
///
/// The instance is AtpgEmitter's: the §2 miter's clauses plus the
/// excitation unit, emitted from the fault's cone straight into a CDCL
/// solver. FaultOutcome::solve_seconds times the search alone.
///
/// Thread-safe: yes; this is the per-fault kernel run_atpg runs
/// concurrently on pool workers when threads > 1. Each thread keeps one
/// emitter and one solver (a function-local thread_local) and reloads them
/// per call; a reloaded solver searches exactly as a fresh one, so the
/// outcome is a pure function of (net, fault, solver) and concurrent and
/// serial invocations return bit-identical results.
FaultOutcome generate_test(const net::Network& net, const StuckAtFault& fault,
                           const sat::SolverConfig& solver, Pattern& test_out);

namespace detail {

/// Phase-2 solve strategy plugged into the shared TEGUS pipeline skeleton.
/// run_atpg plugs in an on-demand strategy at one thread and a speculative
/// pool-backed one at more. The contract that keeps every strategy
/// byte-identical to the serial engine:
///
///   * begin() is called once, after the random phase, with the collapsed
///     fault list, the phase-2 work list (indices into `faults`, in commit
///     order) and the pipeline's dropped bitmap.
///   * solve() is then called exactly once per work-list entry that is not
///     dropped at its turn, in work-list order, from the pipeline thread —
///     except that an AtpgOptions::budget firing stops the calls early
///     (the pipeline then never asks for the remaining entries; a
///     speculative strategy must tolerate abandoned in-flight work).
///   * `dropped` is written only by the pipeline thread between solve()
///     calls and is monotone (bits only turn on), so a strategy may read
///     it from the pipeline thread without locking; a fault observed
///     dropped will never be asked for.
///   * solve() must return exactly what generate_test() returns for that
///     fault — strategies may reorder or overlap *computation*, never
///     change per-fault results.
///   * end() is called once after phase 2's last solve() call, also when
///     the budget cut phase 2 short, and before the escalation ladder.
class SolveProvider {
 public:
  virtual ~SolveProvider() = default;
  virtual void begin(const net::Network& net,
                     std::span<const StuckAtFault> faults,
                     std::span<const std::size_t> work_list,
                     const std::vector<bool>& dropped) {
    (void)net;
    (void)faults;
    (void)work_list;
    (void)dropped;
  }
  virtual FaultOutcome solve(std::size_t fault_index, Pattern& test_out) = 0;
  /// No further solve() call follows: a speculative strategy abandons
  /// what it still has in flight, an instrumented one records its totals.
  virtual void end() {}

  /// Phase-3 hook: consulted once per still-kAborted fault, in fault
  /// order, BEFORE the built-in escalation ladder. Returning an outcome
  /// supplies that fault's final escalated classification wholesale (plus
  /// the test through `test_out` when detected) and suppresses the ladder
  /// for it; returning nullopt (the default) runs the built-in ladder.
  /// The pipeline still commits a detected outcome's test — verification
  /// and drop-by-simulation against the remaining aborted tail, in one
  /// pass — so a provider that replays recorded per-fault escalations (the
  /// cluster's merge) reproduces the serial engine's result exactly.
  virtual std::optional<FaultOutcome> escalate(std::size_t fault_index,
                                               Pattern& test_out) {
    (void)fault_index;
    (void)test_out;
    return std::nullopt;
  }
};

/// The per-fault solver configuration an engine hands to generate_test:
/// options.solver with the run-level AtpgOptions::budget threaded in
/// (unless the solver config already carries its own budget), so every
/// in-flight CDCL solve — serial or on a pool worker — observes the run's
/// deadline and cancellation token.
sat::SolverConfig per_fault_solver_config(const AtpgOptions& options);

/// Fault-simulation hook: same signature/semantics as fault_simulate with
/// the network bound; results must equal fault_simulate's. run_atpg calls
/// it on the pipeline thread at any thread count.
using SimulateFn = std::function<std::vector<bool>(
    std::span<const StuckAtFault>, std::span<const Pattern>)>;

/// The TEGUS skeleton run_atpg drives at any thread count: collapse,
/// random phase (seeded from options.seed), then per-fault solves through
/// `provider`, then the escalation ladder. Every test found is committed
/// through `simulate` exactly once, with its own fault first in the fault
/// list and, when dropping, the still-open faults after it. The
/// classification it produces is a pure function of (net, options) —
/// provider scheduling can never leak into the result.
AtpgResult run_atpg_pipeline(const net::Network& net,
                             const AtpgOptions& options,
                             SolveProvider& provider,
                             const SimulateFn& simulate);

}  // namespace detail

}  // namespace cwatpg::fault
