// Deterministic failpoint injection: named failure sites with seeded,
// schedule-driven firing.
//
// A failpoint is a named hook compiled into production code at the exact
// place a real failure would surface — a short read, an allocation
// failure, a spurious budget expiry, a stuck job. At runtime each site is
// a no-op until a *schedule* arms it; an armed site fires according to a
// deterministic rule (fire on the Nth hit, every Nth hit, once,
// probabilistically with a fixed RNG, always), so any observed failure
// cascade can be replayed exactly from the schedule string that produced
// it. bench_chaos builds on this: hundreds of seeded schedules, each a
// reproducible experiment asserting the service loses zero responses.
//
// Usage at a site (the macros are the ONLY sanctioned spelling — they
// compile to constants when CWATPG_FAILPOINTS=OFF, so sites cost nothing
// in a hardened build):
//
//   if (CWATPG_FAILPOINT("sat.solver.alloc")) throw std::bad_alloc();
//
//   const int k = CWATPG_FAILPOINT_ARG("net.read.short");
//   if (k >= 0) limit = std::max(1, k);   // site-defined parameter
//
// Arming, from a test or via the CWATPG_FAILPOINTS environment variable
// (read once, at first registry use — how the kill -9 journal smoke
// stalls the daemon from outside):
//
//   fp::ScheduleScope fps("svc.queue.full=nth:3;sat.solver.alloc=prob:0.1:42");
//
// Schedule grammar (';'-separated items, each `name=spec[@arg]`):
//   off            never fires (site stays counted)
//   always         fires on every hit
//   once           fires on the first hit only
//   nth:N          fires on exactly the Nth hit (1-based)
//   every:N        fires on every Nth hit (N, 2N, 3N, …)
//   prob:P[:SEED]  fires each hit with probability P, from an RNG seeded
//                  by SEED (default 0) and the site name — replayable
//   @K             optional integer payload CWATPG_FAILPOINT_ARG returns
//                  (K >= 0: -1 is the macros' "did not fire" sentinel)
//
// Determinism and domains: hit counters (and prob RNG streams) are kept
// per (domain, site), where the domain is a thread-local label the owning
// component sets (`svc.reader`, `svc.worker`, `svc.client`, …). Two
// threads hitting the same site therefore never race for "who gets the
// Nth hit": each domain counts its own deterministic execution, which is
// what makes a schedule replay bit-identically even for sites shared by
// the client and server ends of one transport.
//
// Thread-safe: all registry operations take one mutex; the not-armed fast
// path is a single relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cwatpg::fp {

/// True when failpoint sites are compiled in (CMake CWATPG_FAILPOINTS=ON,
/// the default). Tests that inject failures skip themselves when OFF.
#if defined(CWATPG_FAILPOINTS) && CWATPG_FAILPOINTS
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

enum class Mode : std::uint8_t {
  kOff,
  kAlways,
  kOnce,
  kNth,
  kEveryNth,
  kProb,
};

struct Spec {
  Mode mode = Mode::kOff;
  std::uint64_t n = 1;      ///< kNth / kEveryNth parameter
  double p = 0.0;           ///< kProb firing probability
  std::uint64_t seed = 0;   ///< kProb RNG seed (mixed with the site name)
  int arg = 0;              ///< payload returned by CWATPG_FAILPOINT_ARG

  /// Round-trips through parse_spec; used to echo armed schedules.
  std::string to_string() const;
};

/// Parses one spec ("nth:3", "prob:0.25:42@7", …). Throws
/// std::invalid_argument with the offending text on any violation.
Spec parse_spec(std::string_view text);

class Registry {
 public:
  /// The process-wide registry. First use reads the CWATPG_FAILPOINTS
  /// environment variable and, when set to a non-empty schedule, arms it
  /// (a malformed env schedule aborts with a message — a chaos run with a
  /// typo'd schedule must not silently run failure-free).
  static Registry& instance();

  void arm(const std::string& name, const Spec& spec);
  /// Arms every item of a schedule string. Throws std::invalid_argument
  /// on bad grammar; items before the bad one stay armed.
  void arm_schedule(std::string_view schedule);
  void disarm(const std::string& name);
  void disarm_all();
  /// Also clears hit/fire counters (disarm_all keeps them so a finished
  /// run can still be audited).
  void reset();

  /// Armed sites with their specs, sorted by name.
  std::vector<std::pair<std::string, Spec>> armed() const;
  bool anything_armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// The slow path behind the macros: counts a hit of `name` in the
  /// calling thread's domain and decides firing. Returns the spec's arg
  /// (>= 0) when the failpoint fires, -1 when it does not.
  int evaluate(const char* name);

  struct Counts {
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };
  /// Per-(domain,site) counters, keyed "domain/site" ("site" when the
  /// domain is empty). std::map so iteration order — and therefore any
  /// dump — is stable for replay comparison.
  std::map<std::string, Counts> counts() const;

 private:
  Registry();

  struct SiteState {
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    std::uint64_t rng = 0;  ///< xoshiro-free splitmix64 state for kProb
    bool rng_init = false;
  };

  mutable std::mutex mutex_;
  std::atomic<int> armed_count_{0};
  std::unordered_map<std::string, Spec> specs_;
  /// keyed "domain/site"; state survives re-arming so nth counts from the
  /// first hit after reset(), not after every arm().
  std::unordered_map<std::string, SiteState> states_;
};

/// Sets the calling thread's failpoint domain (see header comment).
/// Pass "" (or let DomainScope restore) to clear.
void set_thread_domain(std::string domain);
const std::string& thread_domain();

/// RAII domain label for the current thread.
class DomainScope {
 public:
  explicit DomainScope(std::string domain);
  ~DomainScope();
  DomainScope(const DomainScope&) = delete;
  DomainScope& operator=(const DomainScope&) = delete;

 private:
  std::string saved_;
};

/// RAII schedule: arms on construction, disarms EVERYTHING and resets all
/// counters on destruction — the test-suite idiom, so no schedule can
/// leak into the next test.
class ScheduleScope {
 public:
  explicit ScheduleScope(std::string_view schedule);
  ~ScheduleScope();
  ScheduleScope(const ScheduleScope&) = delete;
  ScheduleScope& operator=(const ScheduleScope&) = delete;
};

/// Macro backend. Inline so the not-compiled and not-armed cases fold to
/// a constant / one relaxed load.
inline int evaluate_site(const char* name) {
  if constexpr (!kEnabled) return -1;
  Registry& r = Registry::instance();
  if (!r.anything_armed()) return -1;
  return r.evaluate(name);
}

}  // namespace cwatpg::fp

/// True iff the named failpoint fires at this hit.
#define CWATPG_FAILPOINT(name) (::cwatpg::fp::evaluate_site(name) >= 0)
/// The armed spec's integer payload when the failpoint fires, -1 when not.
#define CWATPG_FAILPOINT_ARG(name) (::cwatpg::fp::evaluate_site(name))
