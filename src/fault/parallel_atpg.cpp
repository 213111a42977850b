#include "fault/parallel_atpg.hpp"

#include <cassert>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "fault/incremental.hpp"
#include "fault/obs_hooks.hpp"
#include "util/threadpool.hpp"

namespace cwatpg::fault {
namespace {

/// Speculation window per pool worker: in-flight solves beyond the commit
/// frontier. Larger hides commit latency; smaller bounds wasted solves
/// when fault dropping is hot.
constexpr std::size_t kLookahead = 4;
/// Minimum faults per shard when fault simulation runs on the pool (the
/// multi-pattern random phase); single-pattern commit simulations stay on
/// the pipeline thread, where they are cheaper than a dispatch.
constexpr std::size_t kSimGrain = 512;

/// One speculative solve a pool worker hands to the pipeline thread. One
/// worker calls run() once; the pipeline thread calls take() at most once.
class SolveSlot {
 public:
  /// Worker side: runs generate_test, keeping what it throws for take(),
  /// books the solve in the calling worker's entry of `stats.workers`
  /// (only ever touched by that worker, so unlocked) and publishes it.
  void run(const net::Network& netw, const StuckAtFault& fault,
           const sat::SolverConfig& config, ParallelStats& stats) {
    FaultOutcome outcome;
    Pattern test;
    std::exception_ptr error;
    try {
      outcome = generate_test(netw, fault, config, test);
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

/// Speculative strategy for the shared TEGUS pipeline.
///
/// The pipeline thread (the only caller of solve()) keeps a window of
/// up to `window_` solves in flight ahead of the commit frontier. Faults
/// are dispatched in work-list order — and the pool's FIFO queue starts
/// them in that order, so the solve the frontier waits on is never queued
/// behind a later one — skipping any already dropped at
/// dispatch time; because the dropped bitmap is monotone and written only
/// by the pipeline thread, the skip can never diverge from the pipeline's
/// own skip — a fault observed dropped stays dropped. Entries dispatched
/// before their dropping test committed are simply never asked for; their
/// slots are discarded (counted as waste) and the shared_ptr keeps the
/// storage alive until the worker task finishes harmlessly.
class SpeculativeProvider final : public detail::SolveProvider {
 public:
  SpeculativeProvider(ThreadPool& pool, const sat::SolverConfig& config,
                      std::size_t window, ParallelStats& stats)
      : pool_(pool),
        config_(config),
        window_(window),
        stats_(stats) {}

  void begin(const net::Network& netw, std::span<const StuckAtFault> faults,
             std::span<const std::size_t> work_list,
             const std::vector<bool>& dropped) override {
    netw_ = &netw;
    faults_ = faults;
    work_list_ = work_list;
    dropped_ = &dropped;
    cursor_ = 0;
  }

  FaultOutcome solve(std::size_t fault_index, Pattern& test_out) override {
    // Discard slots whose faults were dropped after dispatch: the pipeline
    // commits in work-list order, so anything in flight ahead of
    // `fault_index` will never be requested.
    while (!in_flight_.empty() && in_flight_.front().fault != fault_index) {
      ++stats_.wasted;
      in_flight_.pop_front();
    }
    top_up();
    assert(!in_flight_.empty() && in_flight_.front().fault == fault_index &&
           "pipeline requested a fault outside dispatch order");
    const std::shared_ptr<SolveSlot> slot = in_flight_.front().slot;
    in_flight_.pop_front();
    top_up();  // keep workers fed while we block on this slot
    return slot->take(test_out, stats_);
  }

 private:
  struct InFlight {
    std::size_t fault;
    std::shared_ptr<SolveSlot> slot;
  };

  /// Dispatches work-list entries (skipping currently-dropped faults)
  /// until the speculation window is full or the list is exhausted.
  void top_up() {
    while (in_flight_.size() < window_ && cursor_ < work_list_.size()) {
      const std::size_t fi = work_list_[cursor_++];
      if ((*dropped_)[fi]) continue;  // monotone: will never be requested
      auto slot = std::make_shared<SolveSlot>();
      in_flight_.push_back({fi, slot});
      ++stats_.dispatched;
      if (in_flight_.size() > stats_.max_in_flight)
        stats_.max_in_flight = in_flight_.size();
      pool_.submit([slot, fault = faults_[fi], netw = netw_, config = config_,
                    stats = &stats_] {
        slot->run(*netw, fault, config, *stats);
      });
    }
  }

  ThreadPool& pool_;
  sat::SolverConfig config_;
  std::size_t window_;
  ParallelStats& stats_;

  const net::Network* netw_ = nullptr;
  std::span<const StuckAtFault> faults_;
  std::span<const std::size_t> work_list_;
  const std::vector<bool>* dropped_ = nullptr;
  std::size_t cursor_ = 0;
  std::deque<InFlight> in_flight_;
};

}  // namespace

AtpgResult run_atpg_parallel(const net::Network& netw,
                             const ParallelAtpgOptions& options,
                             ParallelStats* stats_out) {
  // `stats` is declared before `pool` deliberately: if the pipeline throws,
  // in-flight worker tasks still write into `stats`, so the pool (whose
  // destructor drains and joins them) must be destroyed first.
  ParallelStats stats;
  ThreadPool pool(options.num_threads);
  stats.workers.resize(pool.size());

  // Fault simulation hook: shard multi-pattern simulations (the random
  // phase) across the pool; leave single-pattern drop simulations on the
  // pipeline thread, where they are cheaper than a round-trip dispatch.
  // Per-fault detection is independent of sharding, so results equal
  // fault_simulate's exactly.
  const detail::FsimMetrics fsim_metrics(options.base.metrics);
  auto simulate = [&netw, &pool, &fsim_metrics](
                      std::span<const StuckAtFault> faults,
                      std::span<const Pattern> patterns) {
    if (pool.size() <= 1 || patterns.size() < 64 ||
        faults.size() < 2 * kSimGrain) {
      FsimStats fs;
      std::vector<bool> detected = fault_simulate(
          netw, faults, patterns, fsim_metrics.enabled() ? &fs : nullptr);
      fsim_metrics.record(fs);
      return detected;
    }
    std::vector<bool> detected(faults.size(), false);
    const std::size_t chunks = (faults.size() + kSimGrain - 1) / kSimGrain;
    std::vector<std::vector<bool>> shard(chunks);
    pool.parallel_for(0, faults.size(), kSimGrain,
                      [&](std::size_t lo, std::size_t hi) {
                        // Counter handles are atomic, so each shard task may
                        // record its own stats concurrently.
                        FsimStats fs;
                        shard[lo / kSimGrain] = fault_simulate(
                            netw, faults.subspan(lo, hi - lo), patterns,
                            fsim_metrics.enabled() ? &fs : nullptr);
                        fsim_metrics.record(fs);
                      });
    for (std::size_t c = 0; c < chunks; ++c)
      for (std::size_t k = 0; k < shard[c].size(); ++k)
        if (shard[c][k]) detected[c * kSimGrain + k] = true;
    return detected;
  };

  AtpgResult result;
  if (options.base.engine == AtpgEngine::kIncremental) {
    // The serial engine's one session, on this thread: the pool shards
    // only the random phase's fault simulation.
    detail::IncrementalProvider provider(options.base);
    result = detail::run_atpg_pipeline(netw, options.base, provider, simulate);
    provider.finalize();
  } else {
    // per_fault_solver_config threads the run budget into every worker's
    // solver: when the deadline fires or the caller cancels, all in-flight
    // speculative solves observe it at their next budget poll and return
    // kUnknown; queued-but-unstarted ones fast-fail before building a miter.
    // That is how cancellation propagates — the pool itself is never torn
    // down mid-task, so the committed prefix stays deterministic.
    SpeculativeProvider provider(pool,
                                 detail::per_fault_solver_config(options.base),
                                 kLookahead * pool.size(), stats);
    result = detail::run_atpg_pipeline(netw, options.base, provider, simulate);
    pool.wait_idle();  // drain discarded speculative solves before reporting
  }

  if (options.base.metrics != nullptr) {
    obs::MetricsRegistry& m = *options.base.metrics;
    m.counter("parallel.dispatched").add(stats.dispatched);
    m.counter("parallel.committed").add(stats.committed);
    m.counter("parallel.wasted").add(stats.wasted);
    m.gauge("parallel.max_in_flight")
        .max_in(static_cast<double>(stats.max_in_flight));
    m.gauge("parallel.workers").max_in(static_cast<double>(pool.size()));
  }

  if (stats_out != nullptr) *stats_out = std::move(stats);
  return result;
}

}  // namespace cwatpg::fault
