// Correctness oracle of the benchmark, independent of the run under test.
//
// Golden verdict classes (detected / untestable / unreachable per collapsed
// fault) are committed under perfbench/golden/ and were produced once by
// `perfbench --make-golden`, cross-checked against PODEM. Every attributed
// test of a checked result is re-simulated here with netlist/simulate
// (simulate64 / simulate64_fault) plus a benchmark-side pin-forcing pass
// for branch faults; fault/fsim is deliberately not used, because it is
// one of the layers the benchmark measures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "fault/tegus.hpp"
#include "netlist/network.hpp"
#include "netlist/simulate.hpp"
#include "obs/json.hpp"

namespace perfbench {

/// 'D' detected (incl. both dropped kinds), 'U' untestable, 'R'
/// unreachable, '?' anything else (aborted, undetermined).
char verdict_class(fault::FaultStatus status);

struct GoldenEntry {
  std::string hash;      ///< svc::content_hash of the parsed circuit
  std::string verdicts;  ///< one verdict class per collapsed fault
};

/// circuit name -> entry, for one golden set (file `<dir>/<set>.txt`).
using GoldenSet = std::map<std::string, GoldenEntry>;

GoldenSet load_golden(const std::string& dir, const std::string& set);
void write_golden(const std::string& path, const GoldenSet& golden);

/// True iff `pattern` (one bool per primary input) detects `fault`,
/// by full good/faulty re-simulation.
bool detects_independently(const net::Network& net,
                           const fault::StuckAtFault& fault,
                           const fault::Pattern& pattern);

/// Checks one run_atpg result against the golden verdicts: every fault's
/// class must match, and every detected fault must be detected by its
/// attributed test (or, when dropped by the random phase, by one of the
/// first `random_patterns` tests). Returns one ok flag per outcome; a
/// result whose fault list does not line up with the golden string fails
/// every fault. `first_error` (optional) receives the first mismatch.
std::vector<bool> check_result(const net::Network& net,
                               const std::string& golden_verdicts,
                               const fault::AtpgResult& result,
                               std::size_t random_patterns,
                               std::string* first_error);

/// Same faults, statuses, attributions and tests: the byte-identity the
/// repo promises between runs, engines and transports.
bool same_result(const fault::AtpgResult& a, const fault::AtpgResult& b);

/// FNV-1a digest of a run_atpg answer: fault count, classification counts
/// and every test pattern, in order. A served or cluster answer (the
/// response `result` object) equals an in-process result exactly when
/// their digests match.
std::uint64_t answer_digest(const obs::Json& result);
std::uint64_t answer_digest(const fault::AtpgResult& result);

/// FNV-1a step over `s` plus a separator, for composing digests.
std::uint64_t fnv(std::uint64_t h, std::string_view s);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Flips the verdict of the first fault of `result` in the detected class
/// (detected or dropped) to untestable
/// (the planted wrong verdict of the self-test). Returns false when the
/// result has no detected fault to corrupt.
bool plant_wrong_verdict(fault::AtpgResult& result);

}  // namespace perfbench
