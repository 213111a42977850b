// FIFO thread pool.
//
// Substrate for the fault-parallel ATPG engine (fault::run_atpg with
// AtpgOptions::threads > 1, which builds one pool per run) and any future
// data-parallel kernel (suite sweeps, multi-start partitioning). Every
// worker pops one shared, mutex-guarded queue in submission order, so the
// task submitted first starts first. The parallel engine relies on that:
// it submits solves in commit order, and the solve the commit frontier
// waits on is the oldest one queued. Which worker runs a task
// never changes an observable result, because tasks communicate through
// their own synchronization.
//
// Thread-safe: submit() may be called concurrently from any thread,
// including from inside a running task. wait_idle() must be called from
// OUTSIDE the pool (a worker blocking on the pool's own completion would
// deadlock); this is asserted in debug builds. A worker of ANOTHER pool is
// outside: a task may drive a private pool of its own.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cwatpg {

class ThreadPool {
 public:
  /// A unit of work. A task may throw: the worker captures the exception
  /// (an escaping exception has no thread to propagate into) and the first
  /// one captured is rethrown by the next wait_idle() — the join/commit
  /// point. Later exceptions from the same drain are dropped, and an exception
  /// still pending when the pool is destroyed is discarded (a destructor
  /// cannot throw). Tasks that must not lose any error should still ship a
  /// std::exception_ptr through their own channel — fault::run_atpg's
  /// speculative solves show the pattern.
  using Task = std::function<void()>;

  /// Sentinel returned by worker_index() on non-pool threads.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// Spawns `num_threads` workers (0 = default_thread_count()). If a
  /// thread fails to start, the workers already started are stopped and
  /// joined, and the failure (std::system_error) is rethrown.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains every queued task, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  std::size_t size() const { return threads_.size(); }

  /// Appends `task` to the queue. Never blocks on task execution.
  void submit(Task task);

  /// Blocks until every task submitted so far (including tasks spawned by
  /// tasks) has finished. Must be called from outside the pool. Rethrows
  /// the first exception a submit()-path task threw since the previous
  /// wait_idle(); the pool stays usable afterwards.
  void wait_idle();

  /// Index of the calling thread in the pool that owns it, in [0, size())
  /// of that pool, or kNotAWorker on a thread no pool owns.
  static std::size_t worker_index();

  /// Hardware concurrency with a floor of 1 (std::thread::hardware_
  /// concurrency() may legally return 0).
  static std::size_t default_thread_count();

  /// Resolves a user-facing `--threads` knob: 0 means "auto" and maps to
  /// default_thread_count(); any other value is taken literally. The ONE
  /// place this policy lives — bench binaries, cwatpg_serve and the
  /// service all call it instead of keeping private copies.
  static std::size_t resolve_thread_count(std::size_t requested) {
    return requested == 0 ? default_thread_count() : requested;
  }

 private:
  void worker_loop(std::size_t index);
  /// Sets stop_, wakes every worker and joins it; each one drains the
  /// queue before it returns.
  void stop_and_join();

  // pending_ counts submitted tasks that have not yet finished running.
  // queue_, pending_, stop_ and first_error_ are guarded by mutex_, so
  // sleeping workers and wait_idle() cannot miss a wakeup.
  std::mutex mutex_;
  std::condition_variable wake_cv_;  ///< signaled on submit and stop
  std::condition_variable idle_cv_;  ///< signaled when pending_ hits 0
  std::deque<Task> queue_;
  std::size_t pending_ = 0;
  bool stop_ = false;
  /// First exception thrown by a submit()-path task since the last
  /// wait_idle(); rethrown (and cleared) by wait_idle().
  std::exception_ptr first_error_;

  std::vector<std::thread> threads_;  ///< last, after what they use
};

}  // namespace cwatpg
