#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fsim.hpp"
#include "gen/structured.hpp"
#include "gen/suites.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"
#include "util/rng.hpp"

namespace cwatpg::fault {
namespace {

TEST(Fsim, KnownC17Detection) {
  const net::Network n = gen::c17();
  // Inputs in order: 1, 2, 3, 6, 7.
  // With 1=1,3=1 => G10=0. G10 s-a-1 flips G10 to 1; with 2=0 => G16=1;
  // out22 = NAND(G10,G16): good NAND(0,1)=1, faulty NAND(1,1)=0 => detect.
  const StuckAtFault f{*n.find("10"), StuckAtFault::kStem, true};
  const Pattern detecting = {true, false, true, false, false};
  EXPECT_TRUE(detects(n, f, detecting));
  // With 1=0: G10 is already 1, fault not excited.
  const Pattern non_detecting = {false, false, true, false, false};
  EXPECT_FALSE(detects(n, f, non_detecting));
}

TEST(Fsim, StuckValueEqualGoodValueNotDetected) {
  const net::Network n = gen::c17();
  // Any pattern where net already equals the stuck value can't detect.
  const StuckAtFault f{*n.find("10"), StuckAtFault::kStem, false};
  const Pattern p = {true, true, true, true, true};  // G10 = NAND(1,1) = 0
  EXPECT_FALSE(detects(n, f, p));
}

TEST(Fsim, BranchFaultDiffersFromStem) {
  // Branch fault on one fanout of signal 11 affects only one output path.
  const net::Network n = gen::c17();
  const StuckAtFault branch{*n.find("16"), 1, true};  // 11->16 branch s-a-1
  const StuckAtFault stem{*n.find("11"), StuckAtFault::kStem, true};
  // Find a pattern detecting the stem via output 23 only — it must not
  // detect the branch into gate 16.
  cwatpg::Rng rng(3);
  bool found_difference = false;
  for (int t = 0; t < 200 && !found_difference; ++t) {
    Pattern p(5);
    for (auto&& b : p) b = rng.chance(0.5);
    if (detects(n, stem, p) != detects(n, branch, p))
      found_difference = true;
  }
  EXPECT_TRUE(found_difference);
}

TEST(Fsim, AgreesWithBruteForceOnAllFaults) {
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  // All 32 patterns at once.
  std::vector<Pattern> patterns;
  for (int v = 0; v < 32; ++v) {
    Pattern p(5);
    for (int b = 0; b < 5; ++b) p[b] = (v >> b) & 1;
    patterns.push_back(p);
  }
  const auto detected = fault_simulate(n, faults, patterns);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    bool reference = false;
    for (const Pattern& p : patterns)
      reference = reference || detects(n, faults[i], p);
    EXPECT_EQ(detected[i], reference) << to_string(n, faults[i]);
  }
}

TEST(Fsim, EveryC17FaultDetectable) {
  // c17 is fully testable: exhaustive patterns detect every fault.
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  std::vector<Pattern> patterns;
  for (int v = 0; v < 32; ++v) {
    Pattern p(5);
    for (int b = 0; b < 5; ++b) p[b] = (v >> b) & 1;
    patterns.push_back(p);
  }
  EXPECT_DOUBLE_EQ(coverage(n, faults, patterns), 1.0);
}

TEST(Fsim, RedundantFaultNeverDetected) {
  // OR(a, ~a) = 1 always: s-a-1 on the OR output is undetectable.
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  const auto g = n.add_gate(net::GateType::kOr, {a, na});
  n.add_output(g, "o");
  const StuckAtFault f{g, StuckAtFault::kStem, true};
  const std::vector<Pattern> patterns = {{false}, {true}};
  const StuckAtFault faults[] = {f};
  const auto detected = fault_simulate(n, faults, patterns);
  EXPECT_FALSE(detected[0]);
}

TEST(Fsim, MoreThan64Patterns) {
  const net::Network n = net::decompose(gen::parity_tree(8));
  const auto faults = collapsed_fault_list(n);
  cwatpg::Rng rng(9);
  std::vector<Pattern> patterns;
  for (int t = 0; t < 130; ++t) {  // 3 blocks, last partial
    Pattern p(8);
    for (auto&& b : p) b = rng.chance(0.5);
    patterns.push_back(p);
  }
  const auto detected = fault_simulate(n, faults, patterns);
  // Parity trees are highly testable: random patterns detect nearly all.
  std::size_t hits = 0;
  for (bool d : detected)
    if (d) ++hits;
  EXPECT_GT(hits, faults.size() * 9 / 10);
}

TEST(Fsim, PartialLastBlockMasked) {
  // A detection that would only occur in lanes beyond the pattern count
  // must not leak: craft 1 pattern and verify against single detects().
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  const std::vector<Pattern> one = {{true, true, true, true, true}};
  const auto detected = fault_simulate(n, faults, one);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_EQ(detected[i], detects(n, faults[i], one[0]));
}

TEST(Fsim, EmptyPatternsDetectNothing) {
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  const auto detected = fault_simulate(n, faults, {});
  for (bool d : detected) EXPECT_FALSE(d);
}

TEST(Fsim, WrongPatternWidthThrows) {
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  const std::vector<Pattern> bad = {{true, false}};
  EXPECT_THROW(fault_simulate(n, faults, bad), std::invalid_argument);
}

TEST(Fsim, CoverageEmptyFaultListIsFull) {
  const net::Network n = gen::c17();
  EXPECT_DOUBLE_EQ(coverage(n, {}, {}), 1.0);
}

class FsimRandomCross : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsimRandomCross, BlockSimMatchesScalarSim) {
  const net::Network n = net::decompose(gen::simple_alu(3));
  const auto faults = collapsed_fault_list(n);
  cwatpg::Rng rng(GetParam());
  std::vector<Pattern> patterns;
  for (int t = 0; t < 10; ++t) {
    Pattern p(n.inputs().size());
    for (auto&& b : p) b = rng.chance(0.5);
    patterns.push_back(p);
  }
  const auto detected = fault_simulate(n, faults, patterns);
  for (std::size_t i = 0; i < faults.size(); i += 5) {
    bool reference = false;
    for (const auto& p : patterns)
      reference = reference || detects(n, faults[i], p);
    EXPECT_EQ(detected[i], reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsimRandomCross,
                         ::testing::Range<std::uint64_t>(1, 6));

/// The whole faulty circuit re-simulated for one fault: a stem fault
/// through net::simulate64_fault, a branch fault by a pass that feeds
/// `stuck` to the one faulted input pin. Returns the lanes on which some
/// kOutput differs from `good`.
std::uint64_t resimulated_lanes(const net::Network& n, const StuckAtFault& f,
                                std::span<const std::uint64_t> pi_words,
                                const net::SimFrame& good) {
  net::SimFrame bad;
  if (f.is_stem()) {
    bad = net::simulate64_fault(n, pi_words, f.node, f.stuck_value);
  } else {
    bad = good;
    std::vector<std::uint64_t> ins;
    for (net::NodeId id = 0; id < n.node_count(); ++id) {
      const auto fanins = n.fanins(id);
      if (fanins.empty()) continue;
      ins.clear();
      for (std::size_t p = 0; p < fanins.size(); ++p)
        ins.push_back(id == f.node && static_cast<std::int32_t>(p) == f.pin
                          ? (f.stuck_value ? ~0ULL : 0ULL)
                          : bad[fanins[p]]);
      bad[id] = n.type(id) == net::GateType::kOutput
                    ? ins[0]
                    : net::eval_gate_word(n.type(id), ins);
    }
  }
  std::uint64_t lanes = 0;
  for (const net::NodeId o : n.outputs()) lanes |= good[o] ^ bad[o];
  return lanes;
}

/// x = AND(a, b) feeds y = NAND(x, x) on both pins, so x appears twice in
/// fanouts(); c feeds p = XOR(c, c), whose output a flip of c cannot
/// change but a stuck pin can; `dead` = NOR(x, c) has no fanout.
net::Network shared_pin_circuit() {
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto c = n.add_input("c");
  const auto x = n.add_gate(net::GateType::kAnd, {a, b}, "x");
  const auto y = n.add_gate(net::GateType::kNand, {x, x}, "y");
  const auto p = n.add_gate(net::GateType::kXor, {c, c}, "p");
  n.add_gate(net::GateType::kNor, {x, c}, "dead");
  n.add_output(n.add_gate(net::GateType::kOr, {y, p}, "q"), "oq");
  n.add_output(x, "ox");
  return n;
}

TEST(FsimOracle, DetectionMatrixMatchesFullFaultyResimulation) {
  gen::SuiteOptions opts;
  opts.scale = 0.1;
  std::vector<net::Network> circuits = gen::iscas85_like_suite(opts);
  for (net::Network& n : gen::mcnc_like_suite(opts))
    circuits.push_back(std::move(n));
  circuits.push_back(gen::c17());
  circuits.push_back(shared_pin_circuit());
  // Largest first, all on this thread: every smaller circuit runs on the
  // thread's simulation scratch as a larger one left it.
  std::stable_sort(circuits.begin(), circuits.end(),
                   [](const net::Network& l, const net::Network& r) {
                     return l.node_count() > r.node_count();
                   });
  cwatpg::Rng rng(24);
  std::size_t pairs = 0;
  for (const net::Network& n : circuits) {
    // all_faults plus the stem faults it leaves out: those on nodes with
    // no fanout (output markers, dangling gates).
    std::vector<StuckAtFault> faults = all_faults(n);
    for (net::NodeId id = 0; id < n.node_count(); ++id)
      if (n.fanouts(id).empty())
        for (const bool v : {false, true})
          faults.push_back({id, StuckAtFault::kStem, v});
    for (const std::size_t count : {1u, 130u}) {
      std::vector<Pattern> patterns(count, Pattern(n.inputs().size()));
      for (Pattern& p : patterns)
        for (auto&& bit : p) bit = rng.chance(0.5);
      const auto matrix = detection_matrix(n, faults, patterns);
      const auto detected = fault_simulate(n, faults, patterns);
      for (std::size_t base = 0; base < count; base += 64) {
        const std::size_t lanes = std::min<std::size_t>(64, count - base);
        const std::uint64_t mask = lanes == 64 ? ~0ULL : (1ULL << lanes) - 1;
        std::vector<std::uint64_t> pi_words(n.inputs().size(), 0);
        for (std::size_t lane = 0; lane < lanes; ++lane)
          for (std::size_t i = 0; i < pi_words.size(); ++i)
            if (patterns[base + lane][i]) pi_words[i] |= 1ULL << lane;
        const net::SimFrame good = net::simulate64(n, pi_words);
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
          ASSERT_EQ(matrix[fi][base / 64],
                    resimulated_lanes(n, faults[fi], pi_words, good) & mask)
              << n.name() << ": " << to_string(n, faults[fi]) << ", "
              << count << " patterns, block " << base / 64;
          ++pairs;
        }
      }
      for (std::size_t fi = 0; fi < faults.size(); ++fi)
        ASSERT_EQ(detected[fi],
                  std::any_of(matrix[fi].begin(), matrix[fi].end(),
                              [](std::uint64_t w) { return w != 0; }))
            << n.name() << ": " << to_string(n, faults[fi]);
    }
  }
  EXPECT_EQ(pairs, 49456u);
}

}  // namespace
}  // namespace cwatpg::fault
