#include <gtest/gtest.h>

#include "gen/hutton.hpp"
#include "gen/structured.hpp"
#include "netlist/decompose.hpp"
#include "netlist/simulate.hpp"
#include "util/rng.hpp"

namespace cwatpg::net {
namespace {

/// Checks functional equivalence on 256 random 64-wide pattern blocks
/// (or exhaustively when the input count is small).
void expect_equivalent(const Network& a, const Network& b,
                       std::uint64_t seed) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  Rng rng(seed);
  const std::size_t blocks = a.inputs().size() <= 6 ? 1 : 16;
  for (std::size_t t = 0; t < blocks; ++t) {
    std::vector<std::uint64_t> words(a.inputs().size());
    if (a.inputs().size() <= 6) {
      // Exhaustive: bit i of word w enumerates minterms.
      for (std::size_t i = 0; i < words.size(); ++i) {
        std::uint64_t w = 0;
        for (int m = 0; m < 64; ++m)
          if ((m >> i) & 1) w |= 1ULL << m;
        words[i] = w;
      }
    } else {
      for (auto& w : words) w = rng();
    }
    const SimFrame fa = simulate64(a, words);
    const SimFrame fb = simulate64(b, words);
    for (std::size_t o = 0; o < a.outputs().size(); ++o)
      ASSERT_EQ(fa[a.outputs()[o]], fb[b.outputs()[o]]) << "output " << o;
  }
}

TEST(Decompose, ResultIsDecomposedForm) {
  const Network src = gen::simple_alu(4);
  const Network dec = decompose(src);
  EXPECT_TRUE(is_decomposed(dec));
  EXPECT_NO_THROW(dec.validate());
}

TEST(Decompose, PreservesIoCounts) {
  const Network src = gen::comparator(5);
  const Network dec = decompose(src);
  EXPECT_EQ(dec.inputs().size(), src.inputs().size());
  EXPECT_EQ(dec.outputs().size(), src.outputs().size());
}

TEST(Decompose, EquivalenceAdder) {
  const Network src = gen::ripple_carry_adder(5);
  expect_equivalent(src, decompose(src), 1);
}

TEST(Decompose, EquivalenceComparator) {
  const Network src = gen::comparator(6);
  expect_equivalent(src, decompose(src), 2);
}

TEST(Decompose, EquivalenceParityTree) {
  const Network src = gen::parity_tree(16, 4);
  expect_equivalent(src, decompose(src), 3);
}

TEST(Decompose, EquivalenceMultiplier) {
  const Network src = gen::array_multiplier(4);
  expect_equivalent(src, decompose(src), 4);
}

TEST(Decompose, EquivalenceDecoder) {
  const Network src = gen::decoder(4);
  expect_equivalent(src, decompose(src), 5);
}

TEST(Decompose, EquivalenceWideGates) {
  Network src;
  std::vector<NodeId> pis;
  for (int i = 0; i < 9; ++i)
    pis.push_back(src.add_input(net::indexed_name("x", i)));
  src.add_output(src.add_gate(GateType::kAnd, pis), "wide_and");
  src.add_output(src.add_gate(GateType::kNor, pis), "wide_nor");
  src.add_output(src.add_gate(GateType::kXor, pis), "wide_xor");
  src.add_output(src.add_gate(GateType::kXnor, pis), "wide_xnor");
  src.add_output(src.add_gate(GateType::kNand, pis), "wide_nand");
  const Network dec = decompose(src);
  EXPECT_TRUE(is_decomposed(dec));
  expect_equivalent(src, dec, 6);
}

TEST(Decompose, RemovesBuffers) {
  Network src;
  const NodeId a = src.add_input("a");
  const NodeId b1 = src.add_gate(GateType::kBuf, {a});
  const NodeId b2 = src.add_gate(GateType::kBuf, {b1});
  src.add_output(b2, "o");
  const Network dec = decompose(src);
  EXPECT_EQ(dec.gate_count(), 0u);
  expect_equivalent(src, dec, 7);
}

TEST(Decompose, FaninBoundHonored2) {
  const Network src = gen::decoder(5);  // wide AND terms
  const Network dec = decompose(src, {.max_fanin = 2});
  EXPECT_TRUE(is_decomposed(dec, 2));
  EXPECT_FALSE(is_decomposed(gen::decoder(5), 2));
  expect_equivalent(src, dec, 8);
}

TEST(Decompose, FaninBoundHonored4) {
  const Network src = gen::decoder(5);
  const Network dec = decompose(src, {.max_fanin = 4});
  EXPECT_TRUE(is_decomposed(dec, 4));
  EXPECT_LE(dec.max_fanin(), 4u);
}

TEST(Decompose, RejectsMaxFaninBelow2) {
  EXPECT_THROW(decompose(gen::decoder(3), {.max_fanin = 1}),
               std::invalid_argument);
}

TEST(Decompose, PreservesConstants) {
  Network src;
  const NodeId a = src.add_input("a");
  const NodeId c = src.add_const(true);
  src.add_output(src.add_gate(GateType::kAnd, {a, c}), "o");
  const Network dec = decompose(src);
  expect_equivalent(src, dec, 9);
}

TEST(Decompose, IdempotentOnDecomposedForm) {
  const Network once = decompose(gen::simple_alu(3));
  const Network twice = decompose(once);
  EXPECT_EQ(once.gate_count(), twice.gate_count());
}

TEST(Decompose, HuttonCircuitsStayEquivalent) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::HuttonParams p;
    p.num_gates = 120;
    p.num_inputs = 10;
    p.num_outputs = 5;
    p.seed = seed;
    const Network src = gen::hutton_random(p);
    expect_equivalent(src, decompose(src), seed);
  }
}

class DecomposeAllFamilies
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DecomposeAllFamilies, AdderEquivalenceSweep) {
  const std::size_t bits = GetParam();
  const Network src = gen::ripple_carry_adder(bits);
  const Network dec = decompose(src);
  EXPECT_TRUE(is_decomposed(dec));
  expect_equivalent(src, dec, bits);
}

INSTANTIATE_TEST_SUITE_P(Widths, DecomposeAllFamilies,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

}  // namespace
}  // namespace cwatpg::net
