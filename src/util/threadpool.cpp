#include "util/threadpool.hpp"

#include <atomic>
#include <cassert>
#include <exception>
#include <utility>

#include "util/rng.hpp"

namespace cwatpg {

namespace {

/// The pool that owns the calling thread and the thread's index in it.
/// Every "is the caller one of my workers?" check compares `pool` against
/// `this`: a worker of pool A calling into pool B is an outside thread to
/// B (a served parallel run_atpg drives its own pool from a server pool
/// worker).
struct WorkerSlot {
  const ThreadPool* pool = nullptr;
  std::size_t index = ThreadPool::kNotAWorker;
};
thread_local WorkerSlot tls_worker;

}  // namespace

struct ThreadPool::Worker {
  std::mutex mutex;
  std::deque<Task> deque;
  Rng rng;  ///< steal-victim stream; touched only by the owning thread
  // Telemetry counters: written only by the owning thread (relaxed RMW),
  // read by telemetry() from any thread.
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> steals{0};

  explicit Worker(std::uint64_t seed) : rng(seed) {}
};

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ThreadPool::worker_index() { return tls_worker.index; }

std::vector<ThreadPool::WorkerTelemetry> ThreadPool::telemetry() const {
  std::vector<WorkerTelemetry> out(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    out[i].executed = workers_[i]->executed.load(std::memory_order_relaxed);
    out[i].steals = workers_[i]->steals.load(std::memory_order_relaxed);
  }
  return out;
}

ThreadPool::ThreadPool(std::size_t num_threads, std::uint64_t seed) {
  if (num_threads == 0) num_threads = default_thread_count();
  workers_.reserve(num_threads);
  std::uint64_t sm = seed;
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.push_back(std::make_unique<Worker>(splitmix64(sm)));
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(Task task) {
  std::size_t target;
  if (tls_worker.pool == this) {
    target = tls_worker.index;
  } else {
    // Round-robin from outside the pool; next_target_ lives behind mutex_
    // anyway because we must take it to bump queued_.
    static thread_local std::size_t rr = 0;
    target = rr++ % workers_.size();
  }
  {
    std::lock_guard<std::mutex> worker_lock(workers_[target]->mutex);
    workers_[target]->deque.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++queued_;
    ++pending_;
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop_local(std::size_t index, Task& task) {
  Worker& w = *workers_[index];
  std::lock_guard<std::mutex> lock(w.mutex);
  if (w.deque.empty()) return false;
  task = std::move(w.deque.back());
  w.deque.pop_back();
  return true;
}

bool ThreadPool::try_steal(std::size_t index, Task& task) {
  const std::size_t n = workers_.size();
  if (n <= 1) return false;
  // Random starting victim, then sweep — randomization spreads contention,
  // the sweep guarantees we find work if any deque is non-empty.
  const std::size_t start = static_cast<std::size_t>(
      workers_[index]->rng.below(static_cast<std::uint64_t>(n)));
  for (std::size_t offset = 0; offset < n; ++offset) {
    const std::size_t victim = (start + offset) % n;
    if (victim == index) continue;
    Worker& w = *workers_[victim];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.deque.empty()) continue;
    task = std::move(w.deque.front());
    w.deque.pop_front();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker = WorkerSlot{this, index};
  for (;;) {
    Task task;
    bool stolen = false;
    if (try_pop_local(index, task) || (stolen = try_steal(index, task))) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --queued_;
      }
      Worker& self = *workers_[index];
      self.executed.fetch_add(1, std::memory_order_relaxed);
      if (stolen) self.steals.fetch_add(1, std::memory_order_relaxed);
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      task = nullptr;
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    wake_cv_.wait(lock, [&] { return stop_ || queued_ > 0; });
    if (stop_ && queued_ == 0) return;
  }
}

void ThreadPool::wait_idle() {
  assert(tls_worker.pool != this &&
         "wait_idle() called from inside the pool");
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return pending_ == 0; });
  if (first_error_) {
    const std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  assert(tls_worker.pool != this &&
         "parallel_for() called from inside the pool");
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t count = end - begin;
  if (size() <= 1 || count <= grain) {
    body(begin, end);
    return;
  }

  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t remaining;
    std::exception_ptr error;
  };
  auto latch = std::make_shared<Latch>();
  const std::size_t chunks = (count + grain - 1) / grain;
  latch->remaining = chunks;

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(end, lo + grain);
    submit([latch, lo, hi, &body] {
      std::exception_ptr err;
      try {
        body(lo, hi);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(latch->mutex);
      if (err && !latch->error) latch->error = err;
      if (--latch->remaining == 0) latch->cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(latch->mutex);
  latch->cv.wait(lock, [&] { return latch->remaining == 0; });
  if (latch->error) std::rethrow_exception(latch->error);
}

}  // namespace cwatpg
