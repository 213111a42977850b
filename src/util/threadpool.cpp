#include "util/threadpool.hpp"

#include <cassert>
#include <utility>

namespace cwatpg {

namespace {

/// The pool that owns the calling thread and the thread's index in it.
/// Every "is the caller one of my workers?" check compares `pool` against
/// `this`: a worker of pool A calling into pool B is an outside thread to
/// B.
struct WorkerSlot {
  const ThreadPool* pool = nullptr;
  std::size_t index = ThreadPool::kNotAWorker;
};
thread_local WorkerSlot tls_worker;

}  // namespace

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ThreadPool::worker_index() { return tls_worker.index; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_thread_count();
  threads_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i)
      threads_.emplace_back([this, i] { worker_loop(i); });
  } catch (...) {
    // A joinable std::thread must not be destroyed, so a part-started
    // pool joins what it started before the failure leaves the
    // constructor.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++pending_;
  }
  wake_cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker = WorkerSlot{this, index};
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopped, and every task has run
    Task task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    task = nullptr;  // release the task's captures outside the lock
    lock.lock();
    if (error && !first_error_) first_error_ = error;
    if (--pending_ == 0) idle_cv_.notify_all();
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

}  // namespace cwatpg
