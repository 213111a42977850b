#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fault/podem.hpp"
#include "fault/tegus.hpp"
#include "gen/hutton.hpp"
#include "gen/structured.hpp"
#include "gen/suites.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"

namespace cwatpg::fault {
namespace {

TEST(Tegus, GenerateTestForKnownFault) {
  const net::Network n = gen::c17();
  Pattern test;
  const FaultOutcome outcome = generate_test(
      n, {*n.find("10"), StuckAtFault::kStem, true}, {}, test);
  ASSERT_EQ(outcome.status, FaultStatus::kDetected);
  EXPECT_TRUE(detects(n, outcome.fault, test));
  EXPECT_GT(outcome.sat_vars, 0u);
  EXPECT_GT(outcome.sat_clauses, 0u);
}

TEST(Tegus, UntestableFaultProvenUnsat) {
  // OR(a, ~a) is constantly 1 => s-a-1 on it is redundant.
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  const auto g = n.add_gate(net::GateType::kOr, {a, na});
  n.add_output(g, "o");
  Pattern test;
  const FaultOutcome outcome =
      generate_test(n, {g, StuckAtFault::kStem, true}, {}, test);
  EXPECT_EQ(outcome.status, FaultStatus::kUntestable);
}

TEST(Tegus, UnreachableFaultFlagged) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto dangle = n.add_gate(net::GateType::kNot, {a});
  n.add_gate(net::GateType::kNot, {dangle});  // still dangling
  n.add_output(n.add_gate(net::GateType::kBuf, {a}), "o");
  Pattern test;
  const FaultOutcome outcome =
      generate_test(n, {dangle, StuckAtFault::kStem, true}, {}, test);
  EXPECT_EQ(outcome.status, FaultStatus::kUnreachable);
}

TEST(Tegus, StemFaultOnAnOutputMarkerIsClassified) {
  // all_faults never lists a stem fault on a kOutput marker, but a direct
  // caller may ask for one: it sticks the output's observed value, as the
  // branch fault on the marker's pin 0 does.
  const net::Network n = gen::c17();
  ASSERT_FALSE(n.outputs().empty());
  for (const net::NodeId po : n.outputs()) {
    for (const bool stuck : {false, true}) {
      const StuckAtFault fault{po, StuckAtFault::kStem, stuck};
      SCOPED_TRACE(to_string(n, fault));
      Pattern test;
      const FaultOutcome outcome = generate_test(n, fault, {}, test);
      EXPECT_EQ(outcome.fault, fault);
      const PodemResult structural = podem(n, fault);
      ASSERT_NE(structural.status, PodemStatus::kAborted);
      EXPECT_EQ(outcome.status, structural.status == PodemStatus::kDetected
                                    ? FaultStatus::kDetected
                                    : FaultStatus::kUntestable);
      if (outcome.status != FaultStatus::kDetected) continue;
      const std::vector<bool> hit = fault_simulate(
          n, std::span<const StuckAtFault>(&fault, 1),
          std::span<const Pattern>(&test, 1));
      EXPECT_TRUE(hit[0]);
    }
  }
}

TEST(Tegus, FullC17RunCompleteCoverage) {
  const net::Network n = gen::c17();
  const AtpgResult r = run_atpg(n);
  EXPECT_DOUBLE_EQ(r.fault_coverage(), 1.0);  // c17 is fully testable
  EXPECT_DOUBLE_EQ(r.fault_efficiency(), 1.0);
  EXPECT_EQ(r.num_aborted, 0u);
  EXPECT_FALSE(r.tests.empty());
}

TEST(Tegus, AllOutcomesAccounted) {
  const net::Network n = net::decompose(gen::comparator(4));
  const AtpgResult r = run_atpg(n);
  std::size_t detected = 0, untestable = 0, aborted = 0, unreachable = 0,
              undetermined = 0;
  for (const auto& o : r.outcomes) {
    switch (o.status) {
      case FaultStatus::kDetected:
      case FaultStatus::kDroppedBySim:
      case FaultStatus::kDroppedRandom:
        ++detected;
        break;
      case FaultStatus::kUntestable:
        ++untestable;
        break;
      case FaultStatus::kAborted:
        ++aborted;
        break;
      case FaultStatus::kUnreachable:
        ++unreachable;
        break;
      case FaultStatus::kUndetermined:
        ++undetermined;
        break;
    }
  }
  EXPECT_EQ(detected, r.num_detected);
  EXPECT_EQ(untestable, r.num_untestable);
  EXPECT_EQ(aborted, r.num_aborted);
  EXPECT_EQ(unreachable, r.num_unreachable);
  EXPECT_EQ(undetermined, r.num_undetermined);
  EXPECT_EQ(undetermined, 0u);  // uninterrupted run processes everything
  EXPECT_FALSE(r.interrupted);
}

TEST(Tegus, EveryReportedTestDetectsItsFault) {
  const net::Network n = net::decompose(gen::simple_alu(3));
  const AtpgResult r = run_atpg(n);
  for (const auto& o : r.outcomes) {
    if (o.status != FaultStatus::kDetected &&
        o.status != FaultStatus::kDroppedBySim)
      continue;
    ASSERT_TRUE(o.has_test());
    ASSERT_LT(o.test(), r.tests.size());
    EXPECT_TRUE(detects(n, o.fault, r.tests[o.test()]))
        << to_string(n, o.fault);
  }
}

TEST(Tegus, NoRandomPhaseStillCovers) {
  const net::Network n = gen::c17();
  AtpgOptions opts;
  opts.random_blocks = 0;
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_DOUBLE_EQ(r.fault_coverage(), 1.0);
  // Without the random phase every detection is SAT- or drop-based.
  for (const auto& o : r.outcomes)
    EXPECT_NE(o.status, FaultStatus::kDroppedRandom);
}

TEST(Tegus, NoDroppingSolvesEveryFault) {
  const net::Network n = gen::c17();
  AtpgOptions opts;
  opts.random_blocks = 0;
  opts.drop_by_simulation = false;
  const AtpgResult r = run_atpg(n, opts);
  for (const auto& o : r.outcomes) {
    EXPECT_NE(o.status, FaultStatus::kDroppedBySim);
    if (o.status == FaultStatus::kDetected) {
      EXPECT_GT(o.sat_vars, 0u);
    }
  }
  EXPECT_DOUBLE_EQ(r.fault_coverage(), 1.0);
}

TEST(Tegus, DroppingReducesSatCalls) {
  const net::Network n = net::decompose(gen::ripple_carry_adder(6));
  AtpgOptions drop;
  drop.random_blocks = 0;
  AtpgOptions no_drop = drop;
  no_drop.drop_by_simulation = false;
  const AtpgResult with = run_atpg(n, drop);
  const AtpgResult without = run_atpg(n, no_drop);
  auto sat_calls = [](const AtpgResult& r) {
    std::size_t calls = 0;
    for (const auto& o : r.outcomes)
      if (o.sat_vars > 0) ++calls;
    return calls;
  };
  EXPECT_LT(sat_calls(with), sat_calls(without));
  EXPECT_DOUBLE_EQ(with.fault_coverage(), without.fault_coverage());
}

TEST(Tegus, AdderFullyTestable) {
  const net::Network n = net::decompose(gen::ripple_carry_adder(8));
  const AtpgResult r = run_atpg(n);
  EXPECT_DOUBLE_EQ(r.fault_coverage(), 1.0);
  EXPECT_EQ(r.num_untestable, 0u);
}

TEST(Tegus, RedundantCircuitYieldsUntestables) {
  // A network with explicit redundancy: out = AND(a, OR(a, b)) — the OR's
  // b-input is undetectable at some fault values.
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto o = n.add_gate(net::GateType::kOr, {a, b});
  const auto g = n.add_gate(net::GateType::kAnd, {a, o});
  n.add_output(g, "o");
  AtpgOptions opts;
  opts.random_blocks = 0;
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_GT(r.num_untestable, 0u);
  EXPECT_DOUBLE_EQ(r.fault_efficiency(), 1.0);  // all proven one way
}

TEST(Tegus, DeterministicForFixedSeed) {
  const net::Network n = net::decompose(gen::comparator(3));
  const AtpgResult a = run_atpg(n);
  const AtpgResult b = run_atpg(n);
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_EQ(a.tests.size(), b.tests.size());
}

TEST(Tegus, PerInstanceStatsForFigure1) {
  // The Figure 1 axes must be recoverable from outcomes: vars + time.
  const net::Network n = net::decompose(gen::simple_alu(4));
  AtpgOptions opts;
  opts.random_blocks = 0;
  opts.drop_by_simulation = false;
  const AtpgResult r = run_atpg(n, opts);
  std::size_t with_instances = 0;
  for (const auto& o : r.outcomes) {
    if (o.sat_vars > 0) {
      ++with_instances;
      EXPECT_GE(o.solve_seconds, 0.0);
    }
  }
  EXPECT_EQ(with_instances, r.outcomes.size() - r.num_unreachable);
}

/// The serial per-fault strategy run_atpg plugs into the pipeline.
class PerFaultProvider final : public detail::SolveProvider {
 public:
  explicit PerFaultProvider(const sat::SolverConfig& config)
      : config_(config) {}
  void begin(const net::Network& netw, std::span<const StuckAtFault> faults,
             std::span<const std::size_t>, const std::vector<bool>&) override {
    netw_ = &netw;
    faults_ = faults;
  }
  FaultOutcome solve(std::size_t fi, Pattern& test) override {
    return generate_test(*netw_, faults_[fi], config_, test);
  }

 private:
  sat::SolverConfig config_;
  const net::Network* netw_ = nullptr;
  std::span<const StuckAtFault> faults_;
};

TEST(Tegus, EachCommittedTestIsSimulatedOnceWithItsOwnFaultFirst) {
  // One conflict per solve makes the escalation ladder find tests too, so
  // both phases' commits are counted.
  gen::SuiteOptions suite_opts;
  suite_opts.scale = 0.1;
  net::Network n;
  for (net::Network& member : gen::iscas85_like_suite(suite_opts))
    if (member.name() == "s2670b") n = std::move(member);
  ASSERT_GT(n.node_count(), 0u);
  for (const bool drop : {true, false}) {
    AtpgOptions opts;
    opts.solver.max_conflicts = 1;
    opts.drop_by_simulation = drop;
    std::vector<StuckAtFault> first_fault;  // one per single-test call
    const detail::SimulateFn simulate =
        [&](std::span<const StuckAtFault> faults,
            std::span<const Pattern> patterns) {
          if (patterns.size() == 1) first_fault.push_back(faults.front());
          return fault_simulate(n, faults, patterns);
        };
    PerFaultProvider provider(detail::per_fault_solver_config(opts));
    const AtpgResult r = detail::run_atpg_pipeline(n, opts, provider, simulate);
    const std::size_t random = opts.random_blocks * 64;
    ASSERT_EQ(first_fault.size(), r.tests.size() - random) << drop;
    std::size_t ladder_tests = 0;
    for (const FaultOutcome& o : r.outcomes) {
      if (o.status != FaultStatus::kDetected) continue;
      EXPECT_EQ(first_fault[o.test() - random], o.fault) << drop;
      if (o.engine == SolveEngine::kSatRetry) ++ladder_tests;
    }
    EXPECT_GT(ladder_tests, 0u) << drop;
  }
}

TEST(Tegus, TestThatMissesItsOwnFaultIsAnEngineBug) {
  const net::Network n = gen::c17();
  AtpgOptions opts;
  opts.random_blocks = 0;
  PerFaultProvider provider(detail::per_fault_solver_config(opts));
  const detail::SimulateFn miss_all = [](std::span<const StuckAtFault> faults,
                                         std::span<const Pattern>) {
    return std::vector<bool>(faults.size(), false);
  };
  EXPECT_THROW(detail::run_atpg_pipeline(n, opts, provider, miss_all),
               std::logic_error);
}

class TegusFamilies : public ::testing::TestWithParam<int> {};

TEST_P(TegusFamilies, HighCoverageAcrossGenerators) {
  net::Network n;
  switch (GetParam()) {
    case 0: n = net::decompose(gen::parity_tree(12)); break;
    case 1: n = net::decompose(gen::decoder(3)); break;
    case 2: n = net::decompose(gen::mux_tree(3)); break;
    case 3: n = net::decompose(gen::cellular_array_1d(6)); break;
    case 4: n = net::decompose(gen::array_multiplier(3)); break;
    case 5: n = net::decompose(gen::hamming_ecc(8)); break;
    default: n = gen::c17(); break;
  }
  const AtpgResult r = run_atpg(n);
  EXPECT_EQ(r.num_aborted, 0u);
  EXPECT_DOUBLE_EQ(r.fault_efficiency(), 1.0);
  EXPECT_GE(r.fault_coverage(), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Generators, TegusFamilies, ::testing::Range(0, 6));

}  // namespace
}  // namespace cwatpg::fault
