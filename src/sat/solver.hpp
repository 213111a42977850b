// Conflict-driven clause-learning SAT solver.
//
// This is the production solver behind the TEGUS-style ATPG engine
// (src/fault/tegus) and the Figure 1 experiment. The paper models SAT
// solvers abstractly by Algorithm 1 (see cache_sat.hpp); this class is the
// *practical* counterpart — the CAD-literature solvers it cites ([23]
// GRASP, [24] TEGUS) "provide some feature to reduce conflicts during
// backtracking", which here is 1UIP clause learning.
//
// Feature set: two-watched-literal propagation, first-UIP conflict
// analysis, VSIDS-style decision activities, phase saving, Luby restarts.
// No clause deletion (ATPG-SAT instances are small and easy; learnt sets
// stay tiny).
//
// Loading: problem and learnt clauses live in one flat arena. reset()
// starts a new instance in the same object, keeping the capacity of the
// arena, the per-variable arrays and every watch list, and add_clause()
// streams its clauses in one at a time — the path the Cnf constructor
// takes too. A reloaded solver searches exactly as a fresh one would.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/cnf.hpp"
#include "util/budget.hpp"

namespace cwatpg::sat {

enum class SolveStatus : std::uint8_t { kSat, kUnsat, kUnknown };

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t learnt_literals = 0;
  std::uint64_t restarts = 0;
  /// Implications whose reason clause was learnt by an EARLIER solve()
  /// call on the same Solver — the incremental engine's clause-reuse
  /// signal. Always 0 for a one-shot solver (there is no earlier call),
  /// so per-fault stats are unaffected by the field's existence.
  std::uint64_t reused_implications = 0;
  /// Why the last solve() returned kUnknown (kNone after kSat/kUnsat):
  /// conflict cap vs. propagation cap vs. deadline vs. cancellation.
  /// "Gave up" and "proven" are different results; this says which one
  /// happened and why — the escalation ladder keys off it.
  StopReason stop_reason = StopReason::kNone;

  /// Aggregation across solves (per-worker rollups, RunReports): counters
  /// add; stop_reason keeps the most recent firing — `other`'s reason wins
  /// when it is not kNone, so a rollup remembers that *some* solve in the
  /// batch was cut short (the per-reason breakdown belongs in a histogram,
  /// not here).
  SolverStats& operator+=(const SolverStats& other) {
    decisions += other.decisions;
    propagations += other.propagations;
    conflicts += other.conflicts;
    learnt_clauses += other.learnt_clauses;
    learnt_literals += other.learnt_literals;
    restarts += other.restarts;
    reused_implications += other.reused_implications;
    if (other.stop_reason != StopReason::kNone)
      stop_reason = other.stop_reason;
    return *this;
  }

  bool operator==(const SolverStats&) const = default;
};

struct SolverConfig {
  /// Abort with kUnknown after this many conflicts in one solve() call.
  /// The cap is per-call: an incremental solver that has already spent
  /// conflicts on earlier queries still gets the full cap on the next one
  /// (identical to the old cumulative reading for one-shot solvers).
  std::uint64_t max_conflicts = std::uint64_t(-1);
  /// Optional external resource budget (deadline, cooperative
  /// cancellation). Not owned; must outlive every solve() call. The
  /// solver polls it every budget_poll_interval propagations (and loop
  /// iterations), so solve() returns kUnknown
  /// promptly — within one poll interval — when the budget fires.
  /// Polling never influences the search itself: with a budget that never
  /// fires, results are bit-identical to running without one.
  const Budget* budget = nullptr;
  /// Propagations between polls of budget deadline/cancellation. Smaller
  /// values abort more promptly at slightly more clock-read overhead.
  std::uint64_t budget_poll_interval = 1024;
};

// Thread-safe: per-instance. A Solver owns all of its mutable state (no
// globals, no statics, no shared caches), so distinct instances may run
// concurrently on distinct threads — this is the contract the fault-
// parallel ATPG engine relies on, one Solver per thread, reloaded for
// each fault. A single instance is NOT internally synchronized: never call
// solve()/model()/stats() on the same instance from two threads at once.
// The input Cnf is only read during construction and need not outlive the
// Solver.
// Determinism: solve() is a pure function of (clauses, config, call history
// since the last reset) — no timing, addresses, randomness or earlier
// instances feed the search — so concurrent, serial, fresh and reloaded
// solvers return bit-identical models and stats.
class Solver {
 public:
  /// An empty instance (zero variables); reset() loads a real one.
  Solver() = default;
  /// reset(cnf.num_vars(), config), then add_clause() for every clause.
  explicit Solver(const Cnf& cnf, SolverConfig config = {});

  /// Starts a new instance over `num_vars` variables with no clauses,
  /// forgetting everything about the previous one (clauses, assignment,
  /// activities, phases, stats, model) but keeping allocated capacity.
  void reset(Var num_vars, SolverConfig config = {});

  /// Adds a problem clause, before the first solve() of the instance. The
  /// clause must be duplicate-free and not a tautology (Cnf's form). A
  /// clause already satisfied at the root is dropped, root-false literals
  /// are stripped, and a unit is propagated at once. After a root conflict
  /// further clauses are ignored: the instance is already UNSAT. Throws
  /// std::invalid_argument on a variable >= num_vars.
  void add_clause(std::span<const Lit> clause);

  /// Solves the instance. Repeat calls re-run the search from the root
  /// (learnt clauses are kept, so a second call is cheap).
  SolveStatus solve() { return solve({}); }

  /// Solves under assumptions (MiniSat-style): each assumption is placed
  /// as a decision before the free search begins. kUnsat then means
  /// "unsatisfiable under these assumptions" — unless the instance is
  /// globally UNSAT, a later call with different assumptions may be kSat.
  /// Learnt clauses are consequences of the clause database alone, so
  /// they persist soundly across calls; this is what makes repeated
  /// queries against one encoding cheap (incremental SAT). The conflict
  /// cap applies per call, and query_stats() reports the
  /// call's own effort — for a fresh solver's single call both reduce to
  /// the cumulative behavior, bit for bit.
  SolveStatus solve(std::span<const Lit> assumptions);

  /// Model after a kSat result: value per variable. Variables that were
  /// never constrained get `false`.
  const std::vector<bool>& model() const { return model_; }

  const SolverStats& stats() const { return stats_; }

  /// Stats of the most recent solve() call alone (cumulative deltas since
  /// its entry, stop_reason included). What the incremental engine
  /// attributes to each fault; for a fresh solver's first call it equals
  /// stats().
  SolverStats query_stats() const {
    SolverStats d;
    d.decisions = stats_.decisions - query_base_.decisions;
    d.propagations = stats_.propagations - query_base_.propagations;
    d.conflicts = stats_.conflicts - query_base_.conflicts;
    d.learnt_clauses = stats_.learnt_clauses - query_base_.learnt_clauses;
    d.learnt_literals = stats_.learnt_literals - query_base_.learnt_literals;
    d.restarts = stats_.restarts - query_base_.restarts;
    d.reused_implications =
        stats_.reused_implications - query_base_.reused_implications;
    d.stop_reason = stats_.stop_reason;
    return d;
  }

  /// Adjusts the conflict cap for subsequent solve() calls. The cap is
  /// per-call (see solve()), so an incremental caller can retry one hard
  /// query with a grown cap without rebuilding the solver.
  void set_max_conflicts(std::uint64_t cap) { config_.max_conflicts = cap; }

  /// The Luby restart sequence, 0-indexed: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8…
  /// Public because it is a pure function worth pinning in tests: the
  /// original subtractive implementation underflowed on subsequence
  /// boundaries (first at i == 3) and could spin forever.
  static std::uint64_t luby(std::uint64_t i);

 private:
  // Truth values use 0 = false, 1 = true, 2 = unassigned.
  static constexpr std::uint8_t kFalse = 0, kTrue = 1, kUndef = 2;
  static constexpr std::uint32_t kNoReason = static_cast<std::uint32_t>(-1);

  struct Watcher {
    std::uint32_t clause = 0;
    Lit blocker;
  };

  std::uint8_t value(Lit l) const {
    const std::uint8_t v = assign_[l.var()];
    return v == kUndef ? kUndef : static_cast<std::uint8_t>(v ^ (l.negated() ? 1 : 0));
  }
  std::uint32_t level(Var v) const { return level_[v]; }

  // A clause reference is the arena offset of the clause's size word; its
  // literals follow it.
  std::span<Lit> clause(std::uint32_t ref) {
    return {arena_.data() + ref + 1, arena_[ref].code()};
  }

  bool enqueue(Lit l, std::uint32_t reason);
  std::uint32_t propagate();  // returns the conflicting clause or kNoReason
  void analyze(std::uint32_t conflict, Clause& learnt,
               std::uint32_t& backtrack_level);
  void backtrack_to(std::uint32_t target_level);
  void bump(Var v);
  void attach(std::uint32_t ref);
  std::uint32_t add_internal_clause(std::span<const Lit> c);

  // Indexed max-heap over activity_ for decision picking.
  void heap_swap(std::size_t a, std::size_t b);
  void heap_up(std::size_t i);
  void heap_down(std::size_t i);
  void heap_insert(Var v);
  Var heap_pop();
  static constexpr std::size_t kNotInHeap = static_cast<std::size_t>(-1);

  SolverConfig config_;
  /// Every clause, problem then learnt, as a size word (a Lit whose code()
  /// is the length) followed by the literals.
  std::vector<Lit> arena_;
  /// Indexed by Lit::code(). Never shrinks: reset() clears the lists the
  /// last instance used and keeps their capacity.
  std::vector<std::vector<Watcher>> watches_;
  std::vector<std::uint8_t> assign_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> reason_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_limits_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double activity_increment_ = 1.0;
  std::vector<bool> polarity_;  // saved phases
  std::vector<std::uint8_t> seen_;
  std::vector<Var> heap_;
  std::vector<std::size_t> heap_pos_;

  std::vector<bool> model_;
  SolverStats stats_;
  /// Snapshot of stats_ at the current solve()'s entry: query_stats()
  /// subtracts it, and the conflict cap compares against the delta so
  /// every call gets a full budget of its own.
  SolverStats query_base_;
  /// The arena's end after the last problem clause / at the current
  /// solve()'s entry. A propagation whose reason lies in [problem_end_,
  /// query_begin_) was driven by a clause learnt on an earlier call — that
  /// is the reused_implications counting rule.
  std::size_t problem_end_ = 0;
  std::size_t query_begin_ = 0;
  bool root_conflict_ = false;
};

/// One-shot convenience wrapper.
/// Thread-safe: yes; builds a private Solver per call.
struct SolveResult {
  SolveStatus status = SolveStatus::kUnknown;
  std::vector<bool> model;
  SolverStats stats;
};
SolveResult solve_cnf(const Cnf& cnf, SolverConfig config = {});

}  // namespace cwatpg::sat
