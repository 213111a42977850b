#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/cutwidth.hpp"
#include "core/mla.hpp"
#include "fault/atpg_circuit.hpp"
#include "fault/tegus.hpp"
#include "gen/hutton.hpp"
#include "gen/structured.hpp"
#include "gen/suites.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"
#include "netlist/simulate.hpp"
#include "sat/encode.hpp"
#include "util/rng.hpp"

namespace cwatpg::fault {
namespace {

/// Reference check: the miter's output is 1 exactly when the pattern
/// detects the fault (good vs faulty simulation differ on some observed
/// PO). Exercised over random patterns.
void expect_miter_behaviour(const net::Network& n, const StuckAtFault& fault,
                            std::uint64_t seed) {
  const AtpgCircuit atpg = build_atpg_circuit(n, fault);
  ASSERT_NO_THROW(atpg.miter.validate());
  cwatpg::Rng rng(seed);
  for (int t = 0; t < 8; ++t) {
    // Random full-circuit pattern.
    std::vector<bool> pattern(n.inputs().size());
    for (std::size_t i = 0; i < pattern.size(); ++i)
      pattern[i] = rng.chance(0.5);

    // Reference: does the pattern detect the fault?
    std::vector<std::uint64_t> words(pattern.size());
    for (std::size_t i = 0; i < words.size(); ++i)
      words[i] = pattern[i] ? ~0ULL : 0ULL;
    const net::SimFrame good = net::simulate64(n, words);
    // Faulty value: inject at the branch/stem by re-simulation through the
    // miter is what we are testing, so build the reference by brute eval of
    // the faulted network semantics using fsim-style injection:
    bool detected = false;
    {
      // Scalar faulty sim with pin-accurate injection.
      std::vector<bool> value(n.node_count());
      for (std::size_t i = 0; i < n.inputs().size(); ++i)
        value[n.inputs()[i]] = pattern[i];
      for (net::NodeId id = 0; id < n.node_count(); ++id) {
        const auto& node = n.node(id);
        bool out = value[id];
        switch (node.type) {
          case net::GateType::kInput:
            out = value[id];
            break;
          case net::GateType::kConst0:
            out = false;
            break;
          case net::GateType::kConst1:
            out = true;
            break;
          default: {
            std::vector<std::uint64_t> ins;
            for (std::size_t p = 0; p < node.fanins.size(); ++p) {
              bool v = value[node.fanins[p]];
              if (!fault.is_stem() && id == fault.node &&
                  static_cast<std::int32_t>(p) == fault.pin)
                v = fault.stuck_value;
              ins.push_back(v ? ~0ULL : 0ULL);
            }
            if (node.type == net::GateType::kOutput)
              out = ins[0] != 0;
            else
              out = (net::eval_gate_word(node.type, ins) & 1) != 0;
            break;
          }
        }
        if (fault.is_stem() && id == fault.node) out = fault.stuck_value;
        value[id] = out;
      }
      for (net::NodeId po : n.outputs())
        if (value[po] != ((good[po] & 1) != 0)) detected = true;
    }

    // Miter evaluation on the corresponding support pattern.
    std::vector<bool> miter_pattern;
    for (net::NodeId pi : atpg.support) {
      std::size_t index = 0;
      for (std::size_t i = 0; i < n.inputs().size(); ++i)
        if (n.inputs()[i] == pi) index = i;
      miter_pattern.push_back(pattern[index]);
    }
    const auto miter_values = atpg.miter.eval(miter_pattern);
    bool miter_out = false;
    for (net::NodeId po : atpg.miter.outputs())
      miter_out = miter_out || miter_values[po];
    ASSERT_EQ(miter_out, detected)
        << to_string(n, fault) << " pattern " << t;
  }
}

TEST(AtpgCircuit, StemFaultMiterBehaviour) {
  const net::Network n = gen::c17();
  expect_miter_behaviour(n, {*n.find("11"), StuckAtFault::kStem, true}, 1);
  expect_miter_behaviour(n, {*n.find("11"), StuckAtFault::kStem, false}, 2);
  expect_miter_behaviour(n, {*n.find("22"), StuckAtFault::kStem, false}, 3);
}

TEST(AtpgCircuit, PiFaultMiterBehaviour) {
  const net::Network n = gen::c17();
  expect_miter_behaviour(n, {*n.find("3"), StuckAtFault::kStem, true}, 4);
  expect_miter_behaviour(n, {*n.find("1"), StuckAtFault::kStem, false}, 5);
}

TEST(AtpgCircuit, BranchFaultMiterBehaviour) {
  const net::Network n = gen::c17();
  // Branch faults on the fanout branches of signal 11.
  expect_miter_behaviour(n, {*n.find("16"), 1, true}, 6);
  expect_miter_behaviour(n, {*n.find("19"), 0, false}, 7);
}

TEST(AtpgCircuit, SweepAllFaultsOnSmallCircuits) {
  for (const net::Network& n :
       {net::decompose(gen::ripple_carry_adder(2)),
        net::decompose(gen::comparator(2)), gen::fig4a_network()}) {
    std::uint64_t seed = 10;
    for (const StuckAtFault& f : all_faults(n)) {
      try {
        expect_miter_behaviour(n, f, seed++);
      } catch (const std::invalid_argument&) {
        // unobservable site: acceptable only if it truly reaches no PO
        const auto tfo = net::transitive_fanout(n, f.node);
        bool reaches = false;
        for (net::NodeId po : n.outputs()) reaches = reaches || tfo[po];
        EXPECT_FALSE(reaches);
      }
    }
  }
}

TEST(AtpgCircuit, MiterOutputsMatchObservedPos) {
  const net::Network n = gen::c17();
  const AtpgCircuit a =
      build_atpg_circuit(n, {*n.find("10"), StuckAtFault::kStem, true});
  EXPECT_EQ(a.miter.outputs().size(), 1u);  // G10 reaches only out 22
  const AtpgCircuit b =
      build_atpg_circuit(n, {*n.find("11"), StuckAtFault::kStem, true});
  EXPECT_EQ(b.miter.outputs().size(), 2u);
}

TEST(AtpgCircuit, SupportIsSubsetOfPis) {
  const net::Network n = net::decompose(gen::ripple_carry_adder(6));
  // A fault deep in the carry chain does not depend on later operand bits.
  const auto faults = collapsed_fault_list(n);
  const AtpgCircuit atpg = build_atpg_circuit(n, faults.front());
  EXPECT_LE(atpg.support.size(), n.inputs().size());
  for (net::NodeId pi : atpg.support)
    EXPECT_EQ(n.type(pi), net::GateType::kInput);
}

TEST(AtpgCircuit, InvalidFaultsThrow) {
  const net::Network n = gen::c17();
  EXPECT_THROW(build_atpg_circuit(n, {999, StuckAtFault::kStem, true}),
               std::invalid_argument);
  EXPECT_THROW(build_atpg_circuit(n, {*n.find("22"), 7, true}),
               std::invalid_argument);
}

TEST(AtpgCircuit, UnobservableSiteThrows) {
  net::Network n;
  const auto a = n.add_input("a");
  n.add_gate(net::GateType::kNot, {a});  // dangling
  n.add_output(n.add_gate(net::GateType::kBuf, {a}), "o");
  EXPECT_THROW(build_atpg_circuit(n, {1, StuckAtFault::kStem, true}),
               std::invalid_argument);
}

// --- AtpgEmitter ------------------------------------------------------------

/// Records an emitted instance as the emitter hands it over, before any
/// sink reduces it.
struct CapturedInstance final : ClauseSink {
  int begins = 0;
  sat::Var num_vars = 0;
  std::vector<sat::Clause> clauses;

  void begin(sat::Var n) override {
    ++begins;
    num_vars = n;
    clauses.clear();
  }
  void add(std::span<const sat::Lit> clause) override {
    clauses.emplace_back(clause.begin(), clause.end());
  }
};

/// The instance the emitter must reproduce: CIRCUIT-SAT of the §2 miter
/// plus the excitation unit.
sat::Cnf reference_instance(const AtpgCircuit& atpg) {
  sat::Cnf cnf = sat::encode_circuit_sat(atpg.miter);
  cnf.add_clause({sat::Lit(atpg.good_fault_net, atpg.fault.stuck_value)});
  return cnf;
}

/// Emits `f` with `emitter` and compares it clause for clause with the
/// reference encoding, and each PI's good-copy variable with good_of.
void expect_emits_reference(AtpgEmitter& emitter, const net::Network& n,
                            const StuckAtFault& f) {
  CapturedInstance captured;
  const std::optional<AtpgEmitter::Instance> emitted =
      emitter.emit(n, f, captured);
  std::optional<AtpgCircuit> atpg;
  try {
    atpg.emplace(build_atpg_circuit(n, f));
  } catch (const std::invalid_argument&) {
  }
  ASSERT_EQ(emitted.has_value(), atpg.has_value()) << to_string(n, f);
  if (!atpg) {
    EXPECT_EQ(captured.begins, 0);
    return;
  }
  const sat::Cnf ref = reference_instance(*atpg);
  EXPECT_EQ(captured.begins, 1);
  ASSERT_EQ(captured.num_vars, ref.num_vars()) << to_string(n, f);
  EXPECT_EQ(emitted->num_vars, ref.num_vars());
  EXPECT_EQ(emitted->num_clauses, ref.num_clauses());
  ASSERT_EQ(captured.clauses.size(), ref.num_clauses()) << to_string(n, f);
  for (std::size_t i = 0; i < ref.num_clauses(); ++i)
    ASSERT_EQ(captured.clauses[i], ref.clause(i))
        << to_string(n, f) << ", clause " << i;
  for (const net::NodeId pi : n.inputs())
    ASSERT_EQ(emitter.good_var(pi), atpg->good_of[pi]) << to_string(n, f);
}

TEST(AtpgEmitter, EmitsTheReferenceInstanceForEveryFaultOfBothSuites) {
  gen::SuiteOptions opts;
  opts.scale = 0.1;
  std::vector<net::Network> circuits = gen::iscas85_like_suite(opts);
  for (net::Network& n : gen::mcnc_like_suite(opts))
    circuits.push_back(std::move(n));
  // One emitter across every circuit: its marks and per-node variables
  // are reused between hosts of different sizes.
  AtpgEmitter emitter;
  std::size_t faults = 0;
  for (const net::Network& n : circuits) {
    for (const StuckAtFault& f : collapsed_fault_list(n)) {
      expect_emits_reference(emitter, n, f);
      if (HasFatalFailure()) return;
      ++faults;
    }
  }
  EXPECT_EQ(faults, 6044u);
}

TEST(AtpgEmitter, EmitsTheReferenceInstanceForOutputPinFaults) {
  const net::Network n = gen::c17();
  AtpgEmitter emitter;
  for (const net::NodeId po : n.outputs()) {
    for (const bool v : {false, true}) {
      expect_emits_reference(emitter, n, {po, 0, v});
      // The marker's own stem fault is built as that branch fault.
      expect_emits_reference(emitter, n, {po, StuckAtFault::kStem, v});
      // The same net's stem fault on the driver, for contrast.
      expect_emits_reference(emitter, n,
                             {n.fanins(po)[0], StuckAtFault::kStem, v});
    }
  }
}

TEST(AtpgEmitter, SiteThatReachesNoOutputIsUnreachableOnBothPaths) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto dangling = n.add_gate(net::GateType::kNot, {a});
  n.add_output(n.add_gate(net::GateType::kBuf, {a}), "o");
  AtpgEmitter emitter;
  for (const StuckAtFault& f :
       {StuckAtFault{dangling, StuckAtFault::kStem, true},
        StuckAtFault{dangling, 0, false}, StuckAtFault{999, -1, false},
        StuckAtFault{dangling, 3, false}}) {
    expect_emits_reference(emitter, n, f);
    Pattern test;
    EXPECT_EQ(generate_test(n, f, {}, test).status, FaultStatus::kUnreachable);
  }
}

// --- Lemma 4.2 --------------------------------------------------------------

TEST(TransferOrdering, IsPermutationOfMiter) {
  const net::Network n = gen::c17();
  const StuckAtFault f{*n.find("11"), StuckAtFault::kStem, true};
  const AtpgCircuit atpg = build_atpg_circuit(n, f);
  const auto h = core::identity_ordering(n.node_count());
  const auto h_psi = transfer_ordering(n, atpg, h);
  EXPECT_NO_THROW(core::positions_of(h_psi, atpg.miter.node_count()));
}

TEST(TransferOrdering, RejectsWrongSize) {
  const net::Network n = gen::c17();
  const AtpgCircuit atpg =
      build_atpg_circuit(n, {*n.find("11"), StuckAtFault::kStem, true});
  EXPECT_THROW(transfer_ordering(n, atpg, {0, 1, 2}), std::invalid_argument);
}

/// Lemma 4.2 property: W(C_psi^ATPG, h_psi) <= 2 W(C,h) + 2.
void expect_lemma42(const net::Network& n, const core::Ordering& h) {
  const std::uint32_t w = core::cut_width(n, h);
  for (const StuckAtFault& f : collapsed_fault_list(n)) {
    AtpgCircuit atpg = [&]() -> AtpgCircuit {
      return build_atpg_circuit(n, f);
    }();
    const auto h_psi = transfer_ordering(n, atpg, h);
    const std::uint32_t w_psi = core::cut_width(atpg.miter, h_psi);
    EXPECT_LE(w_psi, core::lemma42_rhs(w)) << to_string(n, f);
  }
}

TEST(Lemma42, HoldsOnC17Topological) {
  const net::Network n = gen::c17();
  expect_lemma42(n, core::identity_ordering(n.node_count()));
}

TEST(Lemma42, HoldsOnC17MlaOrdering) {
  const net::Network n = gen::c17();
  expect_lemma42(n, core::mla(n).order);
}

TEST(Lemma42, HoldsOnFig4aNetwork) {
  const net::Network n = gen::fig4a_network();
  expect_lemma42(n, core::mla(n).order);
}

TEST(Lemma42, HoldsOnAdder) {
  const net::Network n = net::decompose(gen::ripple_carry_adder(4));
  expect_lemma42(n, core::mla(n).order);
}

TEST(Lemma42, HoldsOnTree) {
  const net::Network n = gen::and_or_tree(16, 2);
  expect_lemma42(n, core::tree_ordering(n));
}

class Lemma42RandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma42RandomSweep, HoldsOnRandomCircuits) {
  gen::HuttonParams p;
  p.num_gates = 60;
  p.num_inputs = 8;
  p.num_outputs = 4;
  p.seed = GetParam();
  const net::Network n = gen::hutton_random(p);
  expect_lemma42(n, core::mla(n).order);
  // Random orders too — the lemma's construction is order-agnostic.
  cwatpg::Rng rng(GetParam());
  core::Ordering random_h = core::identity_ordering(n.node_count());
  for (std::size_t i = random_h.size(); i > 1; --i)
    std::swap(random_h[i - 1], random_h[rng.below(i)]);
  expect_lemma42(n, random_h);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma42RandomSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace cwatpg::fault
