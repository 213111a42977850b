// Resource budgets and cooperative cancellation.
//
// A Budget bundles the two ways a long-running run is allowed to stop
// early: a wall-clock deadline and an explicitly requested cancellation
// (the per-solve effort cap is SolverConfig::max_conflicts). It is the
// graceful-degradation substrate for the ATPG engines: the paper's thesis
// is that ATPG-SAT is *empirically* easy, but a production engine must
// survive the instances that are not — by giving up cleanly, saying why,
// and leaving a partial-but-consistent result instead of hanging.
//
// The design is cooperative, not preemptive: a budget never interrupts
// anything by itself. Consumers (sat::Solver, fault::run_atpg) poll it
// from their inner loops — an atomic load plus, only when a deadline is
// armed, one steady_clock read — and unwind themselves when it fires.
//
// Thread-safe: cancel()/cancelled()/poll() may race freely across threads;
// cancellation is sticky. The deadline is plain configuration — set it
// before sharing the budget, never while a consumer is polling.
// A Budget is shared by `const Budget*` and is deliberately non-copyable:
// the cancellation token must stay one object so every holder observes the
// same cancel().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace cwatpg {

/// Why a budgeted computation stopped early (SolverStats::stop_reason).
/// kNone means "did not stop early": the solve ran to completion, or no
/// budget condition fired before it did.
enum class StopReason : std::uint8_t {
  kNone = 0,
  kConflictLimit,  ///< SolverConfig::max_conflicts exhausted
  kDeadline,       ///< wall-clock deadline passed
  kCancelled,      ///< Budget::cancel() was called
};

/// "none" / "conflict-limit" / "deadline" / "cancelled" — for logs, bench
/// tables and the run report's stop_reasons keys.
const char* to_string(StopReason reason);

class Budget {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint64_t kUnlimited =
      std::numeric_limits<std::uint64_t>::max();

  Budget() = default;
  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Arms the deadline `seconds` of wall-clock from now.
  void set_deadline_after(double seconds);
  /// Arms the deadline at an absolute steady_clock instant.
  void set_deadline(Clock::time_point when);
  void clear_deadline() { has_deadline_ = false; }
  bool has_deadline() const { return has_deadline_; }
  /// Seconds until the deadline (negative once past); +infinity when no
  /// deadline is armed.
  double remaining_seconds() const;
  bool past_deadline() const;

  /// Requests cancellation. Thread-safe and sticky: every subsequent
  /// poll()/cancelled() on any thread observes it.
  void cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Polls the stop conditions — cancellation first (it is cheaper and
  /// the stronger signal), then the deadline. Every poll also bumps the
  /// progress counter: a consumer that keeps polling is by definition
  /// alive, which is the liveness signal the service's job watchdog
  /// samples.
  StopReason poll() const {
    progress_.fetch_add(1, std::memory_order_relaxed);
    if (cancelled()) return StopReason::kCancelled;
    if (has_deadline_ && Clock::now() >= deadline_)
      return StopReason::kDeadline;
    return StopReason::kNone;
  }

  /// Monotone count of poll() calls on this budget, from any thread. A
  /// watchdog that samples it twice and sees no change knows the consumer
  /// stopped polling — stuck, not slow (see svc::Server's watchdog).
  std::uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// True iff poll() would report a stop condition.
  bool exhausted() const { return poll() != StopReason::kNone; }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<std::uint64_t> progress_{0};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
};

/// a * b with saturation at 2^64-1 — for growing conflict caps
/// geometrically without overflow (the escalation ladder's arithmetic).
std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b);

}  // namespace cwatpg
