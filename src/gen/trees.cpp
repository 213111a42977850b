#include "gen/trees.hpp"

#include <string>
#include <vector>

#include "netlist/bench_io.hpp"
#include "util/rng.hpp"

namespace cwatpg::gen {

using net::GateType;
using net::Network;
using net::NodeId;

namespace {

/// Builds a random subtree with ~`budget` gates, returning its root.
NodeId grow_subtree(Network& n, std::size_t budget, std::size_t max_arity,
                    Rng& rng, std::size_t& pi_counter) {
  if (budget == 0) {
    return n.add_input(net::indexed_name("x", pi_counter++));
  }
  if (rng.chance(0.15)) {
    const NodeId child =
        grow_subtree(n, budget - 1, max_arity, rng, pi_counter);
    return n.add_gate(GateType::kNot, {child});
  }
  const auto arity = static_cast<std::size_t>(rng.range(
      2, static_cast<std::int64_t>(std::max<std::size_t>(max_arity, 2))));
  std::vector<NodeId> children;
  std::size_t remaining = budget - 1;
  for (std::size_t i = 0; i < arity; ++i) {
    const std::size_t share =
        i + 1 == arity ? remaining
                       : rng.below(remaining + 1);
    children.push_back(grow_subtree(n, share, max_arity, rng, pi_counter));
    remaining -= share;
  }
  return n.add_gate(rng.chance(0.5) ? GateType::kAnd : GateType::kOr,
                    std::move(children));
}

}  // namespace

Network random_tree(std::size_t num_gates, std::size_t max_arity,
                    std::uint64_t seed) {
  Network n;
  n.set_name(net::indexed_name("rtree", num_gates) + "_" +
             std::to_string(seed));
  Rng rng(seed);
  std::size_t pi_counter = 0;
  const NodeId root = grow_subtree(n, num_gates, max_arity, rng, pi_counter);
  n.add_output(root, "root");
  return n;
}

sat::Cnf formula41() {
  using sat::neg;
  using sat::pos;
  sat::Cnf cnf(9);
  // f = NAND(b, ~c)
  cnf.add_clause({pos(kB), pos(kF)});
  cnf.add_clause({neg(kC), pos(kF)});
  cnf.add_clause({neg(kB), pos(kC), neg(kF)});
  // g = NAND(d, e)
  cnf.add_clause({pos(kD), pos(kG)});
  cnf.add_clause({pos(kE), pos(kG)});
  cnf.add_clause({neg(kD), neg(kE), neg(kG)});
  // h = AND(a, f)
  cnf.add_clause({pos(kA), neg(kH)});
  cnf.add_clause({pos(kF), neg(kH)});
  cnf.add_clause({neg(kA), neg(kF), pos(kH)});
  // i = AND(h, g)
  cnf.add_clause({pos(kH), neg(kI)});
  cnf.add_clause({pos(kG), neg(kI)});
  cnf.add_clause({neg(kH), neg(kG), pos(kI)});
  // Output clause.
  cnf.add_clause({pos(kI)});
  return cnf;
}

net::Hypergraph fig4a_hypergraph() {
  net::Hypergraph hg;
  hg.num_vertices = 9;
  hg.edges = {
      {kB, kF}, {kC, kF},           // inputs of f
      {kD, kG}, {kE, kG},           // inputs of g
      {kA, kH}, {kF, kH},           // inputs of h
      {kH, kI}, {kG, kI},           // inputs of i
  };
  return hg;
}

std::vector<net::NodeId> fig4a_ordering_a() {
  return {kB, kC, kF, kA, kH, kD, kE, kG, kI};
}

std::vector<net::NodeId> fig4a_ordering_b() {
  return {kA, kB, kC, kD, kE, kF, kG, kH, kI};
}

net::Network fig4a_network() {
  Network n;
  n.set_name("fig4a");
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId c = n.add_input("c");
  const NodeId d = n.add_input("d");
  const NodeId e = n.add_input("e");
  // f = NAND(b, ~c) = ~b | c
  const NodeId nb = n.add_gate(GateType::kNot, {b});
  const NodeId f = n.add_gate(GateType::kOr, {nb, c}, "f");
  const NodeId g = n.add_gate(GateType::kNand, {d, e}, "g");
  const NodeId h = n.add_gate(GateType::kAnd, {a, f}, "h");
  const NodeId i = n.add_gate(GateType::kAnd, {h, g}, "i");
  n.add_output(i, "out");
  return n;
}

net::Network c17() {
  static const char* kText = R"(# c17 (ISCAS85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";
  return net::read_bench_string(kText, "c17");
}

}  // namespace cwatpg::gen
