#include "fault/fsim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cwatpg::fault {
namespace {

/// Re-simulates the transitive fanout of `fault` against the good frame.
/// `faulty` holds the good frame on entry and again on return: TFO nodes
/// are visited in topological order, so each in-TFO fanin is written
/// before it is read and every other fanin reads its good value. Returns
/// the lanes of `lane_mask` on which some observed kOutput differs.
std::uint64_t faulty_lanes(const net::Network& netw, const StuckAtFault& fault,
                           const net::SimFrame& good,
                           std::span<const net::NodeId> tfo_nodes,
                           std::uint64_t lane_mask, net::SimFrame& faulty,
                           std::vector<std::uint64_t>& ins) {
  const std::uint64_t stuck = fault.stuck_value ? ~0ULL : 0ULL;
  std::uint64_t diff_lanes = 0;
  for (net::NodeId v : tfo_nodes) {
    const auto& node = netw.node(v);
    std::uint64_t out;
    if (v == fault.node && fault.is_stem()) {
      out = stuck;
    } else {
      switch (node.type) {
        case net::GateType::kInput:
          out = good[v];  // a PI inside the TFO is the (stem-faulted) site
          break;           // itself; handled above — side PIs are not in TFO
        case net::GateType::kConst0:
          out = 0;
          break;
        case net::GateType::kConst1:
          out = ~0ULL;
          break;
        case net::GateType::kOutput: {
          std::uint64_t in = faulty[node.fanins[0]];
          if (!fault.is_stem() && v == fault.node && fault.pin == 0)
            in = stuck;
          out = in;
          break;
        }
        default: {
          ins.clear();
          for (std::size_t p = 0; p < node.fanins.size(); ++p) {
            std::uint64_t in = faulty[node.fanins[p]];
            if (!fault.is_stem() && v == fault.node &&
                static_cast<std::int32_t>(p) == fault.pin)
              in = stuck;
            ins.push_back(in);
          }
          out = net::eval_gate_word(node.type, ins);
          break;
        }
      }
    }
    faulty[v] = out;
    if (node.type == net::GateType::kOutput)
      diff_lanes |= (out ^ good[v]) & lane_mask;
  }
  for (net::NodeId v : tfo_nodes) faulty[v] = good[v];
  return diff_lanes;
}

/// The 64-lane loop under fault_simulate and detection_matrix. Packs
/// `patterns` 64 to a block, simulates the good circuit once per block,
/// re-simulates each fault's TFO against it and calls
/// `record(fault index, block index, diff lanes)`; a fault whose record()
/// returns false is skipped in later blocks. Its scratch is built once per
/// call: one TFO list per fault site, in topological (id) order and shared
/// by the site's s-a-0/s-a-1 and branch faults, and one faulty frame.
/// Returns the call's faults/patterns/resims/node_evals counters.
template <typename Record>
FsimStats simulate_lanes(const net::Network& netw,
                         std::span<const StuckAtFault> faults,
                         std::span<const Pattern> patterns, const char* who,
                         Record record) {
  FsimStats stats;
  if (patterns.empty()) return stats;
  const std::size_t num_pis = netw.inputs().size();
  for (const Pattern& p : patterns)
    if (p.size() != num_pis)
      throw std::invalid_argument(std::string(who) +
                                  ": pattern width mismatch");
  stats.faults = faults.size();
  stats.patterns = patterns.size();

  // One TFO list per fault site, in topological (id) order: collected
  // breadth-first through the fanouts (stamping each node with the root),
  // then sorted.
  std::vector<std::vector<net::NodeId>> tfo_of(netw.node_count());
  std::vector<net::NodeId> mark(netw.node_count(), net::kNullNode);
  for (const StuckAtFault& fault : faults) {
    const net::NodeId root = fault_cone_root(fault);
    std::vector<net::NodeId>& tfo = tfo_of[root];
    if (!tfo.empty()) continue;
    tfo.push_back(root);
    mark[root] = root;
    for (std::size_t i = 0; i < tfo.size(); ++i)
      for (net::NodeId fo : netw.fanouts(tfo[i]))
        if (mark[fo] != root) {
          mark[fo] = root;
          tfo.push_back(fo);
        }
    std::sort(tfo.begin(), tfo.end());
  }

  std::vector<bool> active(faults.size(), true);
  std::vector<std::uint64_t> pi_words(num_pis);
  std::vector<std::uint64_t> ins;
  net::SimFrame faulty;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, patterns.size() - base);
    const std::uint64_t lane_mask =
        lanes == 64 ? ~0ULL : ((1ULL << lanes) - 1);
    std::fill(pi_words.begin(), pi_words.end(), 0);
    for (std::size_t lane = 0; lane < lanes; ++lane)
      for (std::size_t i = 0; i < num_pis; ++i)
        if (patterns[base + lane][i]) pi_words[i] |= 1ULL << lane;
    const net::SimFrame good = net::simulate64(netw, pi_words);
    faulty = good;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (!active[fi]) continue;
      const std::vector<net::NodeId>& tfo =
          tfo_of[fault_cone_root(faults[fi])];
      ++stats.resims;
      stats.node_evals += tfo.size();
      active[fi] = record(fi, base / 64,
                          faulty_lanes(netw, faults[fi], good, tfo,
                                       lane_mask, faulty, ins));
    }
  }
  return stats;
}

}  // namespace

std::vector<bool> fault_simulate(const net::Network& netw,
                                 std::span<const StuckAtFault> faults,
                                 std::span<const Pattern> patterns,
                                 FsimStats* stats_out) {
  std::vector<bool> detected(faults.size(), false);
  std::uint64_t num_detected = 0;
  FsimStats stats = simulate_lanes(
      netw, faults, patterns, "fault_simulate",
      [&](std::size_t fi, std::size_t, std::uint64_t lanes) {
        if (lanes == 0) return true;
        detected[fi] = true;
        ++num_detected;
        return false;
      });
  stats.calls = 1;
  stats.detected = num_detected;
  if (stats_out != nullptr) *stats_out += stats;
  return detected;
}

bool detects(const net::Network& netw, const StuckAtFault& fault,
             const Pattern& pattern) {
  const StuckAtFault faults[] = {fault};
  const Pattern patterns[] = {pattern};
  return fault_simulate(netw, faults, patterns)[0];
}

std::vector<std::vector<std::uint64_t>> detection_matrix(
    const net::Network& netw, std::span<const StuckAtFault> faults,
    std::span<const Pattern> patterns) {
  std::vector<std::vector<std::uint64_t>> matrix(
      faults.size(), std::vector<std::uint64_t>((patterns.size() + 63) / 64));
  simulate_lanes(netw, faults, patterns, "detection_matrix",
                 [&](std::size_t fi, std::size_t block, std::uint64_t lanes) {
                   matrix[fi][block] = lanes;
                   return true;
                 });
  return matrix;
}

double coverage(const net::Network& netw,
                std::span<const StuckAtFault> faults,
                std::span<const Pattern> patterns) {
  if (faults.empty()) return 1.0;
  const auto detected = fault_simulate(netw, faults, patterns);
  const auto n = static_cast<double>(
      std::count(detected.begin(), detected.end(), true));
  return n / static_cast<double>(faults.size());
}

}  // namespace cwatpg::fault
