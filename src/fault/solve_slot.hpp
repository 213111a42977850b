// The in-flight slot both parallel SolveProviders share: the speculative
// per-fault one (fault/parallel_atpg.cpp) and the incremental one
// (fault/incremental.cpp). Included by those engine .cpp files only.
#pragma once

#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "fault/parallel_atpg.hpp"
#include "util/threadpool.hpp"

namespace cwatpg::fault::detail {

/// One solve a pool worker hands to the pipeline thread. One worker calls
/// run() once; the pipeline thread calls take() at most once.
class SolveSlot {
 public:
  /// Worker side: runs `solve(test)`, keeping what it throws for take(),
  /// books it in the calling worker's entry of `stats.workers` (only ever
  /// touched by that worker, so unlocked) and publishes it. Returns the
  /// outcome (a default one when `solve` threw).
  template <typename Solve>
  FaultOutcome run(ParallelStats& stats, Solve&& solve) {
    FaultOutcome outcome;
    Pattern test;
    std::exception_ptr error;
    try {
      outcome = solve(test);
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
    return outcome;
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
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;  ///< guarded by mutex_, like the three below
  FaultOutcome outcome_;
  Pattern test_;
  std::exception_ptr error_;
};

}  // namespace cwatpg::fault::detail
