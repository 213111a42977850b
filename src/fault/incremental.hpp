// Incremental SAT-ATPG over a shared fault-injection miter.
//
// The per-fault flow (tegus.hpp) builds and solves a fresh CNF per fault —
// exactly the 1996 TEGUS recipe the paper analyzes. Modern SAT-ATPG
// engines instead encode ONE miter with *fault-select* variables and solve
// each fault as an incremental query under assumptions, so conflict
// clauses learned on one fault (mostly: "the two copies agree wherever no
// fault is selected") transfer to every later fault.
//
// Construction: a good copy of the circuit plus a faulty copy where every
// fault site carries two selects s_0 / s_1. A stem site is a node v:
//     s_v0 -> fv = 0,   s_v1 -> fv = 1,
//     ~s_v0 & ~s_v1 -> fv = gate(faulty fanins);
// a branch site is an input pin (v, p) whose driver has fanout > 1: the
// pin gets its own wire variable w,
//     s_vp0 -> w = 0,   s_vp1 -> w = 1,
//     ~s_vp0 & ~s_vp1 -> w = faulty[fanin],
// and v's faulty gate clauses read w in place of the fanin — so the whole
// collapsed fault list (stems AND branches) is served by one encoding.
// Pairwise XORs on the outputs and the usual "some XOR is 1" objective
// complete the miter. The selects are not assumed individually — that
// would put thousands of assumption decision levels under every conflict
// and produce gigantic learned clauses. Instead every (site, value) pair
// gets a binary *fault id*, each select is defined as the conjunction of
// its id bits (s ↔ AND of fid literals), and a query assumes just the
// ~log2(2n) id bits: unit propagation then switches exactly one select on
// and all others off, and learned clauses stay small and reusable.
//
// A query additionally pins every primary input outside the fault's
// support cone (the fanin cone of its fanout cone) to 0. Off-cone inputs
// cannot affect excitation or any output difference, so the answer is
// unchanged — but the search becomes cone-local, matching the per-fault
// flow's key advantage (the paper's small-cut instances) instead of
// paying whole-circuit propagation on every decision.
//
// The encoding (SharedMiterCnf) is split from the solving session
// (SharedMiter) so one build can seed any number of independent solvers:
// the service registry keeps one encoding per circuit, built by the first
// incremental job on it, and every job on that circuit seeds its own
// session from it. The SolveProvider at the bottom plugs the whole thing
// into the shared run_atpg_pipeline as SolveEngine::kIncremental.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fault/fsim.hpp"
#include "fault/tegus.hpp"
#include "sat/solver.hpp"

namespace cwatpg::fault {

/// The shared select-instrumented miter CNF plus the fault-id tables
/// needed to query it. Immutable after construction and self-contained
/// (no reference back into the Network), so a shared_ptr<const
/// SharedMiterCnf> may outlive the network it was built from and seed
/// solvers on any number of threads concurrently.
class SharedMiterCnf {
 public:
  /// Builds the encoding covering every fault site of `net`: stems (any
  /// non-kOutput node with fanout) and branches (any input pin whose
  /// driver has fanout > 1) — a superset of collapsed_fault_list(net).
  explicit SharedMiterCnf(const net::Network& net);

  const sat::Cnf& cnf() const { return cnf_; }
  std::size_t num_vars() const { return cnf_.num_vars(); }
  std::size_t num_clauses() const { return cnf_.num_clauses(); }
  /// node_count() of the network this was built from — the cheap sanity
  /// check the providers run before adopting a prebuilt encoding.
  std::size_t node_count() const { return node_count_; }
  /// Encoded fault sites; each contributes two (site, value) fault ids.
  std::size_t num_sites() const { return num_codes_ / 2; }
  /// Wall-clock spent building (encode + instrument) — the amortized-
  /// build-cost numerator the observability layer reports.
  double build_seconds() const { return build_seconds_; }

  /// True iff `fault` has a select in the encoding. True for every entry
  /// of all_faults(net)/collapsed_fault_list(net).
  bool covers(const StuckAtFault& fault) const;

  /// Assumption literals selecting `fault`: the fault-id bits, the
  /// excitation literal (good value of the faulted net must be the stuck
  /// value's complement), and one pin-to-0 literal per primary input
  /// outside the fault's support cone — the cone restriction that keeps
  /// each query's search cone-local even though the CNF spans the whole
  /// circuit. Throws std::invalid_argument when !covers().
  std::vector<sat::Lit> assumptions_for(const StuckAtFault& fault) const;

  /// Primary inputs (good-copy variables) pinned to 0 by any query rooted
  /// at `node`: those outside the fanin cone of `node`'s fanout cone.
  /// Empty for nodes without a select. Exposed for tests and diagnostics.
  const std::vector<sat::Var>& pinned_inputs_of(net::NodeId node) const {
    return pinned_inputs_[node];
  }

  /// Good-copy variable per primary input, in Network::inputs() order —
  /// what test-pattern extraction reads from a satisfying model.
  const std::vector<sat::Var>& input_vars() const { return input_vars_; }

 private:
  static constexpr std::uint32_t kNoCode = static_cast<std::uint32_t>(-1);

  /// Fault id of (site, value=0); kNoCode when the site is not encoded.
  std::uint32_t code_of(const StuckAtFault& fault) const;

  sat::Cnf cnf_;
  std::size_t node_count_ = 0;
  std::uint32_t num_codes_ = 0;
  double build_seconds_ = 0.0;
  std::vector<std::uint32_t> stem_code_;  ///< per node
  std::vector<std::vector<std::uint32_t>> branch_code_;  ///< per node, pin
  /// Good-copy variable of the faulted net, indexed by code / 2 — the
  /// excitation assumption's variable.
  std::vector<sat::Var> excite_var_;
  std::vector<sat::Var> fid_bits_;
  std::vector<sat::Var> input_vars_;
  /// Per node: the off-cone primary inputs a query rooted there pins to 0.
  std::vector<std::vector<sat::Var>> pinned_inputs_;
};

/// One incremental solving session: a CDCL solver seeded from a (possibly
/// shared) SharedMiterCnf, accumulating learnt clauses across queries.
/// Thread-safe like sat::Solver: distinct sessions may run concurrently
/// (even over one shared encoding); a single session may not.
class SharedMiter {
 public:
  /// Builds a private encoding for `net` and a session over it.
  explicit SharedMiter(const net::Network& net,
                       sat::SolverConfig solver_config = {});

  /// Seeds a session from a prebuilt encoding — how the service reuses
  /// the registry's encoding.
  explicit SharedMiter(std::shared_ptr<const SharedMiterCnf> encoding,
                       sat::SolverConfig solver_config = {});

  const SharedMiterCnf& encoding() const { return *encoding_; }

  /// Number of CNF variables in the shared encoding.
  std::size_t num_vars() const { return encoding_->num_vars(); }

  /// Solves `fault` incrementally (stem or branch).
  /// kSat => testable, `test_out` receives a full-width input pattern;
  /// kUnsat => untestable; kUnknown => a budget/conflict cap fired (see
  /// last_query_stats().stop_reason). Throws std::invalid_argument when
  /// the encoding does not cover `fault`.
  sat::SolveStatus solve_fault(const StuckAtFault& fault, Pattern& test_out);

  /// Stem-fault shorthand: solve_fault({site, kStem, stuck_value}).
  sat::SolveStatus solve_fault(net::NodeId site, bool stuck_value,
                               Pattern& test_out);

  /// Stats of the most recent query alone — what the pipeline attributes
  /// to each fault.
  sat::SolverStats last_query_stats() const { return solver_.query_stats(); }

  /// Cumulative solver statistics across all queries.
  const sat::SolverStats& stats() const { return solver_.stats(); }

  /// Per-query conflict cap for subsequent queries (the in-miter
  /// escalation rung grows it for one retry, then restores it).
  void set_max_conflicts(std::uint64_t cap) {
    solver_.set_max_conflicts(cap);
  }

 private:
  std::shared_ptr<const SharedMiterCnf> encoding_;  // before solver_
  sat::Solver solver_;
};

/// Convenience: runs every fault of `faults` through one SharedMiter
/// session, in order; returns per-fault status aligned with `faults`.
/// Low-level (no unreachability masking: a fault whose cone reaches no
/// output simply comes back kUnsat) — the pipeline providers below add
/// the production semantics.
struct IncrementalOutcome {
  sat::SolveStatus status = sat::SolveStatus::kUnknown;
  Pattern test;
};
std::vector<IncrementalOutcome> run_atpg_incremental(
    const net::Network& net, std::span<const StuckAtFault> faults,
    sat::SolverConfig solver_config = {});

namespace detail {

/// run_atpg's incremental SolveProvider: adopts or builds the encoding,
/// precomputes which faults reach an output, and runs per-fault queries
/// with the in-miter conflict-cap retry rung. One session answers every
/// query, in work-list order, on the pipeline thread at any
/// AtpgOptions::threads; a pool, when there is one, runs none of its work.
///
/// Determinism contract: the session queries every work-list position in
/// order, including positions the pipeline dropped and will never ask
/// for, so its query history — and with it every model and stat it
/// produces — is a pure function of (net, options). A fault's outcome
/// therefore does not depend on which earlier faults were dropped, as
/// generate_test's does not, and serial and parallel runs are
/// byte-identical at any thread count.
class IncrementalProvider final : public SolveProvider {
 public:
  explicit IncrementalProvider(const AtpgOptions& options);

  void begin(const net::Network& net, std::span<const StuckAtFault> faults,
             std::span<const std::size_t> work_list,
             const std::vector<bool>& dropped) override;
  FaultOutcome solve(std::size_t fault_index, Pattern& test_out) override;

  /// Records the run's incremental.* metrics.
  void end() override;

 private:
  /// The incremental counterpart of generate_test: one fault, production
  /// semantics (unreachable masking, budget fast-fail, in-miter retry,
  /// FaultOutcome attribution), counted in the metrics.
  FaultOutcome query(std::size_t fault_index, Pattern& test_out);

  const AtpgOptions& options_;
  std::shared_ptr<const SharedMiterCnf> encoding_;
  std::optional<SharedMiter> miter_;
  /// Every query runs at base_cap_; a query that hits exactly that cap
  /// gets one in-miter retry at retry_cap_ (the escalation ladder's first
  /// rung, without leaving the shared encoding) before the pipeline's
  /// fresh-CNF rounds take over.
  std::uint64_t base_cap_ = 0;
  std::uint64_t retry_cap_ = 0;
  const Budget* budget_ = nullptr;
  std::span<const StuckAtFault> faults_;
  std::span<const std::size_t> work_list_;
  std::size_t next_pos_ = 0;           ///< next work-list position to query
  std::vector<bool> reaches_output_;   ///< per node
  std::uint64_t queries_ = 0;          ///< solver calls, retries included
  std::uint64_t retries_ = 0;
  std::uint64_t reused_ = 0;           ///< reused_implications, summed
  std::uint64_t committed_ = 0;        ///< solve() calls
};

}  // namespace detail

}  // namespace cwatpg::fault
