// Parallel-pattern, event-driven fault simulator.
//
// Substrate of the TEGUS-style ATPG loop's commit step: each found test is
// simulated once, against its own fault and the still-undetected faults,
// which verifies it and drops the faults it detects so their SAT instances
// are never built. fault_simulate and detection_matrix share one loop that
// packs patterns 64 to a block and runs three steps per block:
//   1. one good-circuit simulation;
//   2. per fault, an excitation check at the site (an unexcited fault
//      costs nothing more), then the fault effect walked up the fault's
//      fanout-free chain, one gate per step, until it dies, reaches a
//      kOutput, or reaches its region's stem (a node with more than one
//      fanouts() entry);
//   3. per stem reached, its observability: the lanes on which flipping
//      the stem reaches some kOutput, propagated event-driven in node-id
//      (topological) order and computed once per block. A fault's detected
//      lanes are its effect at the stem AND the stem's observability.
//
// Thread-safe: the Network is only read, and the scratch (faulty values,
// epoch stamps, event heap, per-block stem memo) is one thread_local per
// thread, reused across calls and circuits, so concurrent calls on any mix
// of arguments are safe. Per-fault detection is independent of every
// other fault, which is why a fault list may be split across callers and
// the results concatenated without changing them.
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
  std::uint64_t resims = 0;        ///< (fault, 64-pattern block) pairs examined
  /// Gates the faulty machine evaluated: branch-fault sites, fanout-free
  /// chain steps and stem propagation (a stem fault's site is forced, not
  /// evaluated).
  std::uint64_t node_evals = 0;
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
