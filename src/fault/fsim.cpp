#include "fault/fsim.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace cwatpg::fault {
namespace {

/// One thread's fault-simulation scratch, reused across calls and
/// circuits. A node's faulty value is live only while its stamp equals
/// `epoch`, a stem's memoized observability only while its stamp equals
/// `block`. Both counters only grow (a wrap clears their marks), so what
/// an earlier fault, block, call or circuit left behind never reads live.
struct Scratch {
  std::vector<std::uint64_t> faulty;
  std::vector<std::uint32_t> faulty_stamp;
  std::vector<std::uint64_t> obs;
  std::vector<std::uint32_t> obs_stamp;
  std::uint32_t epoch = 0;
  std::uint32_t block = 0;
  std::vector<net::NodeId> heap;  ///< min-heap of scheduled node ids
  std::vector<std::uint64_t> ins;

  void fit(std::size_t n) {
    if (faulty_stamp.size() >= n) return;
    faulty.resize(n);
    faulty_stamp.resize(n, 0);
    obs.resize(n);
    obs_stamp.resize(n, 0);
  }

  static void advance(std::uint32_t& counter,
                      std::vector<std::uint32_t>& stamps) {
    if (++counter == 0) {
      std::fill(stamps.begin(), stamps.end(), 0);
      counter = 1;
    }
  }
};
thread_local Scratch tls_scratch;

/// The faulty machine over one 64-pattern block's good frame. A fault's
/// effect is walked up its fanout-free chain to the region's stem (a node
/// with more than one fanouts() entry); what the stem's flip reaches is
/// computed once per stem and block.
class BlockSim {
 public:
  BlockSim(const net::Network& netw, const net::SimFrame& good,
           std::uint64_t lane_mask, Scratch& scratch,
           std::uint64_t& node_evals)
      : netw_(netw), good_(good), lane_mask_(lane_mask), s_(scratch),
        node_evals_(node_evals) {
    Scratch::advance(s_.block, s_.obs_stamp);
  }

  /// The lanes of the block on which `fault` makes some kOutput differ.
  std::uint64_t detect(const StuckAtFault& fault) {
    Scratch::advance(s_.epoch, s_.faulty_stamp);
    const std::uint64_t stuck = fault.stuck_value ? ~0ULL : 0ULL;
    net::NodeId v = fault_cone_root(fault);
    std::uint64_t diff =
        ((fault.is_stem() ? stuck : eval(v, fault.pin, stuck)) ^ good_[v]) &
        lane_mask_;
    while (diff != 0 && netw_.type(v) != net::GateType::kOutput) {
      const std::span<const net::NodeId> fanouts = netw_.fanouts(v);
      if (fanouts.size() != 1)
        return fanouts.empty() ? 0 : diff & observability(v);
      set_faulty(v, diff);
      v = fanouts[0];
      diff = eval(v) ^ good_[v];
    }
    return diff;
  }

 private:
  /// The lanes on which flipping `stem` makes some kOutput differ. The
  /// flip propagates event-driven in id (topological) order: a gate is
  /// evaluated only when a fanin differs from its good value, and the
  /// walk ends once every lane is observed.
  std::uint64_t observability(net::NodeId stem) {
    if (s_.obs_stamp[stem] == s_.block) return s_.obs[stem];
    Scratch::advance(s_.epoch, s_.faulty_stamp);
    set_faulty(stem, lane_mask_);
    s_.heap.clear();
    schedule_fanouts(stem);
    std::uint64_t seen = 0;
    net::NodeId last = net::kNullNode;
    while (!s_.heap.empty() && seen != lane_mask_) {
      std::pop_heap(s_.heap.begin(), s_.heap.end(), std::greater<>());
      const net::NodeId v = s_.heap.back();
      s_.heap.pop_back();
      if (v == last) continue;  // scheduled by more than one fanin
      last = v;
      const std::uint64_t diff = eval(v) ^ good_[v];
      if (diff == 0) continue;
      if (netw_.type(v) == net::GateType::kOutput) {
        seen |= diff;
      } else {
        set_faulty(v, diff);
        schedule_fanouts(v);
      }
    }
    s_.obs_stamp[stem] = s_.block;
    return s_.obs[stem] = seen;
  }

  /// Node `v` in the faulty machine: each fanin reads its live faulty
  /// value, or its good value when it has none, and input pin `pin` (a
  /// branch fault's) reads `stuck`. Counts one node evaluation.
  std::uint64_t eval(net::NodeId v, std::int32_t pin = StuckAtFault::kStem,
                     std::uint64_t stuck = 0) {
    ++node_evals_;
    const std::span<const net::NodeId> fanins = netw_.fanins(v);
    if (fanins.empty()) return good_[v];  // a PI or a constant
    s_.ins.clear();
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      const net::NodeId u = fanins[p];
      s_.ins.push_back(static_cast<std::int32_t>(p) == pin ? stuck
                       : s_.faulty_stamp[u] == s_.epoch ? s_.faulty[u]
                                                        : good_[u]);
    }
    const net::GateType type = netw_.type(v);
    return type == net::GateType::kOutput ? s_.ins[0]
                                          : net::eval_gate_word(type, s_.ins);
  }

  void set_faulty(net::NodeId v, std::uint64_t diff) {
    s_.faulty[v] = good_[v] ^ diff;
    s_.faulty_stamp[v] = s_.epoch;
  }

  void schedule_fanouts(net::NodeId v) {
    for (const net::NodeId fo : netw_.fanouts(v)) {
      s_.heap.push_back(fo);
      std::push_heap(s_.heap.begin(), s_.heap.end(), std::greater<>());
    }
  }

  const net::Network& netw_;
  const net::SimFrame& good_;
  const std::uint64_t lane_mask_;
  Scratch& s_;
  std::uint64_t& node_evals_;
};

/// The 64-lane loop under fault_simulate and detection_matrix. Packs
/// `patterns` 64 to a block, simulates the good circuit once per block,
/// runs each still-active fault's BlockSim::detect against it and calls
/// `record(fault index, block index, detected lanes)`; a fault whose
/// record() returns false is skipped in later blocks. Returns the call's
/// faults/patterns/resims/node_evals counters.
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

  tls_scratch.fit(netw.node_count());
  std::vector<bool> active(faults.size(), true);
  std::vector<std::uint64_t> pi_words(num_pis);
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, patterns.size() - base);
    const std::uint64_t lane_mask =
        lanes == 64 ? ~0ULL : ((1ULL << lanes) - 1);
    std::fill(pi_words.begin(), pi_words.end(), 0);
    for (std::size_t lane = 0; lane < lanes; ++lane)
      for (std::size_t i = 0; i < num_pis; ++i)
        if (patterns[base + lane][i]) pi_words[i] |= 1ULL << lane;
    const net::SimFrame good = net::simulate64(netw, pi_words);
    BlockSim sim(netw, good, lane_mask, tls_scratch, stats.node_evals);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (!active[fi]) continue;
      ++stats.resims;
      active[fi] = record(fi, base / 64, sim.detect(faults[fi]));
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
