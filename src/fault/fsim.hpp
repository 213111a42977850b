// Parallel-pattern single-fault-propagation fault simulator.
//
// Substrate of the TEGUS-style ATPG loop's commit step: each found test is
// simulated once, against its own fault and the still-undetected faults,
// which verifies it and drops the faults it detects so their SAT instances
// are never built. Patterns run 64 at a time; per fault only the
// transitive fanout of the fault site is re-simulated against the good
// frame. fault_simulate and detection_matrix share that one loop, whose
// scratch (one TFO list per fault site, one faulty frame) is built once
// per call.
//
// Thread-safe: all functions here are pure — they read the (immutable
// after construction) Network and allocate every scratch buffer locally —
// so concurrent calls on any mix of arguments are safe. Per-fault
// detection is independent of every other fault, which is why the
// fault-parallel engine may shard a fault list across workers and
// concatenate the results without changing them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/simulate.hpp"

namespace cwatpg::fault {

/// A test pattern: one value per primary input of the network.
using Pattern = std::vector<bool>;

/// What one fault_simulate() call did — the fault simulator's contribution
/// to the observability layer. Counters are exact and deterministic (pure
/// functions of the inputs), so instrumented and uninstrumented runs stay
/// bit-identical.
struct FsimStats {
  std::uint64_t calls = 0;         ///< fault_simulate invocations
  std::uint64_t faults = 0;        ///< fault-list entries examined
  std::uint64_t patterns = 0;      ///< patterns simulated
  std::uint64_t resims = 0;        ///< (fault, 64-pattern block) resims
  std::uint64_t node_evals = 0;    ///< TFO gate evaluations re-simulated
  std::uint64_t detected = 0;      ///< faults reported detected

  FsimStats& operator+=(const FsimStats& other) {
    calls += other.calls;
    faults += other.faults;
    patterns += other.patterns;
    resims += other.resims;
    node_evals += other.node_evals;
    detected += other.detected;
    return *this;
  }
};

/// Simulates `patterns` against every fault in `faults`;
/// returns detected[i] == true iff some pattern detects faults[i]
/// (some primary output differs from the good circuit).
/// When `stats_out` is non-null the call's effort counters are ADDED to it
/// (accumulate across calls by reusing one FsimStats).
std::vector<bool> fault_simulate(const net::Network& net,
                                 std::span<const StuckAtFault> faults,
                                 std::span<const Pattern> patterns,
                                 FsimStats* stats_out);
inline std::vector<bool> fault_simulate(const net::Network& net,
                                        std::span<const StuckAtFault> faults,
                                        std::span<const Pattern> patterns) {
  return fault_simulate(net, faults, patterns, nullptr);
}

/// True iff `pattern` detects `fault`.
bool detects(const net::Network& net, const StuckAtFault& fault,
             const Pattern& pattern);

/// Fault coverage of a pattern set over a fault list, in [0,1].
double coverage(const net::Network& net,
                std::span<const StuckAtFault> faults,
                std::span<const Pattern> patterns);

/// Full detection matrix: bit (w*64 + b) of matrix[i] is set iff
/// patterns[w*64 + b] detects faults[i]. matrix[i] has
/// ceil(patterns.size() / 64) words. The raw material for fault
/// dictionaries and diagnosis (fault/dictionary.hpp).
std::vector<std::vector<std::uint64_t>> detection_matrix(
    const net::Network& net, std::span<const StuckAtFault> faults,
    std::span<const Pattern> patterns);

}  // namespace cwatpg::fault
