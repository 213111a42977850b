// Fault-parallel TEGUS: the serial engine's embarrassingly-parallel axis.
//
// ATPG's unit of work is one fault -> one small SAT instance, and the
// paper's whole point is that each instance is easy — so the wall-clock
// win left on the table is running many of them at once. This engine
// shards the collapsed fault list across a FIFO thread pool
// (util/threadpool.hpp): every worker solves speculatively ahead of the
// commit frontier with a private miter + CNF + CDCL solver, while the
// pipeline thread commits outcomes strictly in collapsed-fault order and
// runs simulation-based dropping exactly as the serial engine does. The
// pool starts solves in the order the pipeline submits them, which is
// commit order, so the solve the frontier waits on starts first. A test
// found by one worker therefore still drops faults queued on the others:
// the commit updates the shared dropped bitmap, and the pipeline thread
// skips dropped faults before handing them to a worker.
//
// engine=incremental is the exception: its one solver session answers
// every fault on the pipeline thread, exactly as in run_atpg, and the pool
// shards only the random phase's fault simulation.
//
// Determinism: the result is byte-identical to run_atpg(net, options.base)
// — same statuses, same test patterns, same test_index attribution — for
// ANY thread count, because (a) generate_test is a pure function of
// (net, fault, solver config), (b) commits happen in serial order, and
// (c) the random phase reuses the serial engine's RNG stream untouched.
// The price is bounded speculative waste: at most 4 × threads in-flight
// solves can be discarded per committed dropping test.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/tegus.hpp"

namespace cwatpg::fault {

/// Options for run_atpg_parallel. `base` is the exact serial configuration
/// being parallelized; the thread count only shapes scheduling, never
/// results.
struct ParallelAtpgOptions {
  /// Serial-engine configuration (solver, phases, seed). The parallel run
  /// is byte-identical to run_atpg(net, base).
  AtpgOptions base;
  /// Worker threads; 0 = ThreadPool::default_thread_count().
  std::size_t num_threads = 0;
};

/// What one worker did during a parallel run. Indexed by pool worker id.
struct WorkerStats {
  std::size_t solved = 0;        ///< SAT instances this worker completed
  double solve_seconds = 0.0;    ///< sum of per-instance solve times
  sat::SolverStats solver;       ///< aggregated CDCL counters
};

/// Scheduling telemetry for a parallel run. The per-worker breakdown
/// aggregates into exactly the per-fault SolverStats the Figure-1
/// instrumentation consumes: sum(workers[i].solver) over committed solves
/// equals the sum over AtpgResult::outcomes, plus the discarded ones. An
/// engine=incremental run solves on the pipeline thread, so its counters
/// and per-worker entries stay 0 (its incremental.* metrics count the
/// queries).
struct ParallelStats {
  std::vector<WorkerStats> workers;  ///< one entry per pool worker
  std::size_t dispatched = 0;  ///< speculative solves handed to the pool
  std::size_t committed = 0;   ///< solves whose outcome entered the result
  std::size_t wasted = 0;      ///< solves discarded (fault dropped first)
  std::size_t max_in_flight = 0;  ///< peak speculative solves in flight
};

/// Runs the full ATPG flow on `net` across a FIFO thread pool.
///
/// Guarantees byte-identical classification to run_atpg(net, options.base):
/// every FaultOutcome status, test_index, sat_vars/sat_clauses and
/// solver_stats, and every Pattern in AtpgResult::tests, match the serial
/// engine bit for bit (solve_seconds, being wall-clock, differs). When
/// `stats_out` is non-null it receives per-worker and speculation counters.
///
/// Budgets: options.base.budget is honored run-wide. Cancellation and the
/// deadline propagate to every in-flight worker (each per-fault solver
/// polls the shared budget), the commit loop stops at the cutoff, and the
/// run returns a partial AtpgResult with `interrupted` set. Everything
/// committed before the cutoff is byte-identical to the serial engine's
/// prefix under the same commit order; faults past it stay kUndetermined.
/// When no budget condition fires, the full byte-identity guarantee is
/// untouched. The Budget must stay alive until this function returns (all
/// workers are drained before it does).
///
/// Thread-safe: yes for concurrent calls; each call owns its pool.
AtpgResult run_atpg_parallel(const net::Network& net,
                             const ParallelAtpgOptions& options = {},
                             ParallelStats* stats_out = nullptr);

}  // namespace cwatpg::fault
