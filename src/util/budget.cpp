#include "util/budget.hpp"

namespace cwatpg {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kConflictLimit: return "conflict-limit";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kCancelled: return "cancelled";
  }
  return "?";
}

void Budget::set_deadline_after(double seconds) {
  set_deadline(Clock::now() +
               std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds)));
}

void Budget::set_deadline(Clock::time_point when) {
  deadline_ = when;
  has_deadline_ = true;
}

double Budget::remaining_seconds() const {
  if (!has_deadline_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(deadline_ - Clock::now()).count();
}

bool Budget::past_deadline() const {
  return has_deadline_ && Clock::now() >= deadline_;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > Budget::kUnlimited / b) return Budget::kUnlimited;
  return a * b;
}

}  // namespace cwatpg
