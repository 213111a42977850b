// Work-stealing thread pool.
//
// Substrate for the fault-parallel ATPG engine (fault/parallel_atpg) and
// any future data-parallel kernel (suite sweeps, multi-start partitioning).
// Each worker owns a private deque: it pushes/pops its own work LIFO (hot
// in cache) and steals FIFO from randomly chosen victims when it runs dry —
// the classic Blumofe–Leiserson discipline. Victim order is drawn from a
// per-worker RNG stream split off a master seed (util/rng.hpp), so stealing
// is randomized yet reproducible; note that steal order only affects *who*
// runs a task, never observable results, because tasks communicate through
// their own synchronization.
//
// Thread-safe: submit() may be called concurrently from any thread,
// including from inside a running task. wait_idle() and parallel_for()
// must be called from OUTSIDE the pool (a worker blocking on the pool's
// own completion would deadlock); this is asserted in debug builds. A
// worker of ANOTHER pool is outside: a task may drive a private pool of
// its own, as a served parallel run_atpg does on a server pool worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cwatpg {

class ThreadPool {
 public:
  /// A unit of work. A task may throw: the worker captures the exception
  /// (an escaping exception has no thread to propagate into) and the first
  /// one captured is rethrown by the next wait_idle() — the join/commit
  /// point — matching what parallel_for() already does for its bodies.
  /// Later exceptions from the same drain are dropped, and an exception
  /// still pending when the pool is destroyed is discarded (a destructor
  /// cannot throw). Tasks that must not lose any error should still ship a
  /// std::exception_ptr through their own channel —
  /// fault::run_atpg_parallel shows the pattern.
  using Task = std::function<void()>;

  /// Sentinel returned by worker_index() on non-pool threads.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// What one worker has done so far — scheduling telemetry for the
  /// observability layer (fault::ParallelStats, RunReports). `executed`
  /// counts tasks this worker ran; `steals` counts how many of those it
  /// took from another worker's deque.
  struct WorkerTelemetry {
    std::uint64_t executed = 0;
    std::uint64_t steals = 0;
  };

  /// Spawns `num_threads` workers (0 = default_thread_count()). `seed`
  /// roots the per-worker RNG streams used for steal-victim selection.
  explicit ThreadPool(std::size_t num_threads = 0,
                      std::uint64_t seed = 0x5eedca11);

  /// Drains every queued task, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  std::size_t size() const { return workers_.size(); }

  /// Enqueues `task`. When called from a worker thread the task goes to
  /// that worker's own deque (LIFO locality); otherwise deques are fed
  /// round-robin. Never blocks on task execution.
  void submit(Task task);

  /// Blocks until every task submitted so far (including tasks spawned by
  /// tasks) has finished. Must be called from outside the pool. Rethrows
  /// the first exception a submit()-path task threw since the previous
  /// wait_idle(); the pool stays usable afterwards.
  void wait_idle();

  /// Index of the calling thread in the pool that owns it, in [0, size())
  /// of that pool, or kNotAWorker on a thread no pool owns.
  static std::size_t worker_index();

  /// Per-worker executed/steal counts, indexed by worker id. Safe to call
  /// any time (counters are atomics); exact once the pool is idle.
  std::vector<WorkerTelemetry> telemetry() const;

  /// Splits [begin, end) into chunks of at least `grain` iterations,
  /// runs `body(lo, hi)` on the pool, and blocks until all chunks finish.
  /// Runs inline when the range is small or the pool has one worker.
  /// The first exception thrown by `body` is rethrown in the caller.
  /// Must be called from outside the pool.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

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
  struct Worker;

  void worker_loop(std::size_t index);
  bool try_pop_local(std::size_t index, Task& task);
  bool try_steal(std::size_t index, Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // queued_ counts tasks sitting in deques; pending_ counts submitted
  // tasks that have not yet finished running. Both are guarded by mutex_
  // so sleeping workers and wait_idle() cannot miss a wakeup.
  std::mutex mutex_;
  std::condition_variable wake_cv_;  ///< signaled on submit and stop
  std::condition_variable idle_cv_;  ///< signaled when pending_ hits 0
  std::size_t queued_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  /// First exception thrown by a submit()-path task since the last
  /// wait_idle(); guarded by mutex_, rethrown (and cleared) by wait_idle().
  std::exception_ptr first_error_;
};

}  // namespace cwatpg
