#include "gen/structured.hpp"

#include "netlist/simplify.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace cwatpg::gen {
namespace {

using net::GateType;
using net::Network;
using net::NodeId;

/// Full adder on (a, b, cin) -> (sum, cout) in AND/OR/XOR primitives.
struct FullAdder {
  NodeId sum;
  NodeId cout;
};
FullAdder full_adder(Network& n, NodeId a, NodeId b, NodeId cin) {
  const NodeId axb = n.add_gate(GateType::kXor, {a, b});
  const NodeId sum = n.add_gate(GateType::kXor, {axb, cin});
  const NodeId ab = n.add_gate(GateType::kAnd, {a, b});
  const NodeId axb_c = n.add_gate(GateType::kAnd, {axb, cin});
  const NodeId cout = n.add_gate(GateType::kOr, {ab, axb_c});
  return {sum, cout};
}

NodeId mux2(Network& n, NodeId sel, NodeId when0, NodeId when1) {
  const NodeId ns = n.add_gate(GateType::kNot, {sel});
  const NodeId t0 = n.add_gate(GateType::kAnd, {ns, when0});
  const NodeId t1 = n.add_gate(GateType::kAnd, {sel, when1});
  return n.add_gate(GateType::kOr, {t0, t1});
}

void require(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

}  // namespace

Network ripple_carry_adder(std::size_t bits) {
  require(bits >= 1, "ripple_carry_adder: bits >= 1");
  Network n;
  n.set_name(net::indexed_name("rca", bits));
  std::vector<NodeId> a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) a[i] = n.add_input(net::indexed_name("a", i));
  for (std::size_t i = 0; i < bits; ++i) b[i] = n.add_input(net::indexed_name("b", i));
  NodeId carry = n.add_input("cin");
  for (std::size_t i = 0; i < bits; ++i) {
    const FullAdder fa = full_adder(n, a[i], b[i], carry);
    n.add_output(fa.sum, net::indexed_name("s", i));
    carry = fa.cout;
  }
  n.add_output(carry, "cout");
  return n;
}

Network carry_select_adder(std::size_t bits, std::size_t block) {
  require(bits >= 1 && block >= 1, "carry_select_adder: sizes >= 1");
  Network n;
  n.set_name(net::indexed_name("csa", bits) + net::indexed_name("_", block));
  std::vector<NodeId> a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) a[i] = n.add_input(net::indexed_name("a", i));
  for (std::size_t i = 0; i < bits; ++i) b[i] = n.add_input(net::indexed_name("b", i));
  NodeId carry = n.add_input("cin");

  for (std::size_t base = 0; base < bits; base += block) {
    const std::size_t end = std::min(base + block, bits);
    if (base == 0) {
      // First block: plain ripple.
      for (std::size_t i = base; i < end; ++i) {
        const FullAdder fa = full_adder(n, a[i], b[i], carry);
        n.add_output(fa.sum, net::indexed_name("s", i));
        carry = fa.cout;
      }
      continue;
    }
    // Two speculative ripples (cin=0 / cin=1), then select.
    const NodeId zero = n.add_const(false);
    const NodeId one = n.add_const(true);
    NodeId c0 = zero, c1 = one;
    std::vector<NodeId> s0, s1;
    for (std::size_t i = base; i < end; ++i) {
      const FullAdder f0 = full_adder(n, a[i], b[i], c0);
      const FullAdder f1 = full_adder(n, a[i], b[i], c1);
      s0.push_back(f0.sum);
      s1.push_back(f1.sum);
      c0 = f0.cout;
      c1 = f1.cout;
    }
    for (std::size_t i = base; i < end; ++i)
      n.add_output(mux2(n, carry, s0[i - base], s1[i - base]),
                   net::indexed_name("s", i));
    carry = mux2(n, carry, c0, c1);
  }
  n.add_output(carry, "cout");
  return net::simplify(n);
}

Network decoder(std::size_t address_bits) {
  require(address_bits >= 1 && address_bits <= 12, "decoder: 1..12 bits");
  Network n;
  n.set_name(net::indexed_name("dec", address_bits));
  std::vector<NodeId> addr(address_bits), naddr(address_bits);
  for (std::size_t i = 0; i < address_bits; ++i)
    addr[i] = n.add_input(net::indexed_name("a", i));
  const NodeId enable = n.add_input("en");
  for (std::size_t i = 0; i < address_bits; ++i)
    naddr[i] = n.add_gate(GateType::kNot, {addr[i]});
  const std::size_t lines = std::size_t{1} << address_bits;
  for (std::size_t line = 0; line < lines; ++line) {
    std::vector<NodeId> terms{enable};
    for (std::size_t i = 0; i < address_bits; ++i)
      terms.push_back((line >> i) & 1 ? addr[i] : naddr[i]);
    n.add_output(n.add_gate(GateType::kAnd, std::move(terms)),
                 net::indexed_name("y", line));
  }
  return n;
}

Network mux_tree(std::size_t select_bits) {
  require(select_bits >= 1 && select_bits <= 10, "mux_tree: 1..10 bits");
  Network n;
  n.set_name(net::indexed_name("mux", std::size_t{1} << select_bits));
  const std::size_t ways = std::size_t{1} << select_bits;
  std::vector<NodeId> data(ways), sel(select_bits);
  for (std::size_t i = 0; i < ways; ++i)
    data[i] = n.add_input(net::indexed_name("d", i));
  for (std::size_t i = 0; i < select_bits; ++i)
    sel[i] = n.add_input(net::indexed_name("s", i));
  std::vector<NodeId> layer = data;
  for (std::size_t level = 0; level < select_bits; ++level) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(mux2(n, sel[level], layer[i], layer[i + 1]));
    layer = std::move(next);
  }
  n.add_output(layer[0], "y");
  return n;
}

Network parity_tree(std::size_t width, std::size_t arity) {
  require(width >= 2 && arity >= 2, "parity_tree: width/arity >= 2");
  Network n;
  n.set_name(net::indexed_name("par", width));
  std::vector<NodeId> layer(width);
  for (std::size_t i = 0; i < width; ++i)
    layer[i] = n.add_input(net::indexed_name("x", i));
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < layer.size(); i += arity) {
      const std::size_t end = std::min(i + arity, layer.size());
      if (end - i == 1) {
        next.push_back(layer[i]);
      } else {
        next.push_back(n.add_gate(
            GateType::kXor,
            std::vector<NodeId>(layer.begin() + static_cast<std::ptrdiff_t>(i),
                                layer.begin() + static_cast<std::ptrdiff_t>(end))));
      }
    }
    layer = std::move(next);
  }
  n.add_output(layer[0], "parity");
  return n;
}

Network comparator(std::size_t bits) {
  require(bits >= 1, "comparator: bits >= 1");
  Network n;
  n.set_name(net::indexed_name("cmp", bits));
  std::vector<NodeId> a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) a[i] = n.add_input(net::indexed_name("a", i));
  for (std::size_t i = 0; i < bits; ++i) b[i] = n.add_input(net::indexed_name("b", i));
  // MSB-first iterative: eq so far, lt so far.
  NodeId eq = net::kNullNode, lt = net::kNullNode;
  for (std::size_t i = bits; i-- > 0;) {
    const NodeId bit_eq =
        n.add_gate(GateType::kXnor, {a[i], b[i]});
    const NodeId na = n.add_gate(GateType::kNot, {a[i]});
    const NodeId bit_lt = n.add_gate(GateType::kAnd, {na, b[i]});
    if (eq == net::kNullNode) {
      eq = bit_eq;
      lt = bit_lt;
    } else {
      const NodeId lt_here = n.add_gate(GateType::kAnd, {eq, bit_lt});
      lt = n.add_gate(GateType::kOr, {lt, lt_here});
      eq = n.add_gate(GateType::kAnd, {eq, bit_eq});
    }
  }
  const NodeId ge = n.add_gate(GateType::kNot, {lt});
  const NodeId ne = n.add_gate(GateType::kNot, {eq});
  const NodeId gt = n.add_gate(GateType::kAnd, {ge, ne});
  n.add_output(lt, "lt");
  n.add_output(eq, "eq");
  n.add_output(gt, "gt");
  return n;
}

Network array_multiplier(std::size_t bits) {
  require(bits >= 2 && bits <= 64, "array_multiplier: 2..64 bits");
  Network n;
  n.set_name(net::indexed_name("mul", bits));
  std::vector<NodeId> a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) a[i] = n.add_input(net::indexed_name("a", i));
  for (std::size_t i = 0; i < bits; ++i) b[i] = n.add_input(net::indexed_name("b", i));

  // Partial products pp[i][j] = a[j] & b[i].
  // Row-by-row carry-save accumulation; final ripple for the top carries.
  std::vector<NodeId> sum(bits, net::kNullNode);   // running sum bits
  std::vector<NodeId> carry(bits, net::kNullNode); // carries into next row
  const NodeId zero = n.add_const(false);

  std::vector<NodeId> product;
  for (std::size_t i = 0; i < bits; ++i) {
    std::vector<NodeId> pp(bits);
    for (std::size_t j = 0; j < bits; ++j)
      pp[j] = n.add_gate(GateType::kAnd, {a[j], b[i]});
    if (i == 0) {
      for (std::size_t j = 0; j < bits; ++j) sum[j] = pp[j];
      for (std::size_t j = 0; j < bits; ++j) carry[j] = zero;
      product.push_back(sum[0]);
      continue;
    }
    std::vector<NodeId> new_sum(bits), new_carry(bits);
    for (std::size_t j = 0; j < bits; ++j) {
      const NodeId shifted = j + 1 < bits ? sum[j + 1] : zero;
      const FullAdder fa = full_adder(n, pp[j], shifted, carry[j]);
      new_sum[j] = fa.sum;
      new_carry[j] = fa.cout;
    }
    sum = std::move(new_sum);
    carry = std::move(new_carry);
    product.push_back(sum[0]);
  }
  // Final row: ripple the remaining sum+carry.
  NodeId c = zero;
  for (std::size_t j = 0; j + 1 < bits; ++j) {
    const FullAdder fa = full_adder(n, sum[j + 1], carry[j], c);
    product.push_back(fa.sum);
    c = fa.cout;
  }
  const FullAdder top = full_adder(n, zero, carry[bits - 1], c);
  product.push_back(top.sum);
  for (std::size_t i = 0; i < product.size(); ++i)
    n.add_output(product[i], net::indexed_name("p", i));
  // Row-seeding constants leave redundant gates behind; fold them away so
  // the multiplier is irredundant (fully testable) by construction.
  return net::simplify(n);
}

Network cellular_array_1d(std::size_t cells) {
  require(cells >= 1, "cellular_array_1d: cells >= 1");
  Network n;
  n.set_name(net::indexed_name("cell1d_", cells));
  NodeId state = n.add_input("s0");
  for (std::size_t i = 0; i < cells; ++i) {
    const NodeId x = n.add_input(net::indexed_name("x", i));
    // Cell: next = (state XOR x) OR (state AND x) built from AND/OR/NOT.
    const NodeId both = n.add_gate(GateType::kAnd, {state, x});
    const NodeId either = n.add_gate(GateType::kOr, {state, x});
    const NodeId nboth = n.add_gate(GateType::kNot, {both});
    const NodeId diff = n.add_gate(GateType::kAnd, {either, nboth});
    n.add_output(diff, net::indexed_name("y", i));
    state = n.add_gate(GateType::kOr, {both, diff});
  }
  n.add_output(state, "sN");
  return n;
}

Network cellular_array_2d(std::size_t rows, std::size_t cols) {
  require(rows >= 1 && cols >= 1, "cellular_array_2d: sizes >= 1");
  Network n;
  n.set_name(net::indexed_name("cell2d_", rows) + net::indexed_name("x", cols));
  std::vector<NodeId> north(cols);
  for (std::size_t c = 0; c < cols; ++c)
    north[c] = n.add_input(net::indexed_name("n", c));
  for (std::size_t r = 0; r < rows; ++r) {
    NodeId west = n.add_input(net::indexed_name("w", r));
    for (std::size_t c = 0; c < cols; ++c) {
      const NodeId both = n.add_gate(GateType::kAnd, {north[c], west});
      const NodeId either = n.add_gate(GateType::kOr, {north[c], west});
      west = both;       // east output
      north[c] = either; // south output
    }
    n.add_output(west, net::indexed_name("e", r));
  }
  for (std::size_t c = 0; c < cols; ++c)
    n.add_output(north[c], net::indexed_name("s", c));
  return n;
}

Network and_or_tree(std::size_t leaves, std::size_t arity) {
  require(leaves >= 2 && arity >= 2, "and_or_tree: leaves/arity >= 2");
  Network n;
  n.set_name(net::indexed_name("tree", leaves));
  std::vector<NodeId> layer(leaves);
  for (std::size_t i = 0; i < leaves; ++i)
    layer[i] = n.add_input(net::indexed_name("x", i));
  bool use_and = true;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < layer.size(); i += arity) {
      const std::size_t end = std::min(i + arity, layer.size());
      if (end - i == 1) {
        next.push_back(layer[i]);
      } else {
        next.push_back(n.add_gate(
            use_and ? GateType::kAnd : GateType::kOr,
            std::vector<NodeId>(layer.begin() + static_cast<std::ptrdiff_t>(i),
                                layer.begin() + static_cast<std::ptrdiff_t>(end))));
      }
    }
    layer = std::move(next);
    use_and = !use_and;
  }
  n.add_output(layer[0], "root");
  return n;
}

Network simple_alu(std::size_t bits) {
  require(bits >= 1, "simple_alu: bits >= 1");
  Network n;
  n.set_name(net::indexed_name("alu", bits));
  std::vector<NodeId> a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) a[i] = n.add_input(net::indexed_name("a", i));
  for (std::size_t i = 0; i < bits; ++i) b[i] = n.add_input(net::indexed_name("b", i));
  const NodeId op0 = n.add_input("op0");
  const NodeId op1 = n.add_input("op1");

  NodeId carry = n.add_const(false);
  for (std::size_t i = 0; i < bits; ++i) {
    const FullAdder fa = full_adder(n, a[i], b[i], carry);
    carry = fa.cout;
    const NodeId land = n.add_gate(GateType::kAnd, {a[i], b[i]});
    const NodeId lor = n.add_gate(GateType::kOr, {a[i], b[i]});
    const NodeId lxor = n.add_gate(GateType::kXor, {a[i], b[i]});
    const NodeId lo = mux2(n, op0, fa.sum, land);
    const NodeId hi = mux2(n, op0, lor, lxor);
    n.add_output(mux2(n, op1, lo, hi), net::indexed_name("y", i));
  }
  n.add_output(carry, "cout");
  return net::simplify(n);
}

Network hamming_ecc(std::size_t data_bits) {
  require(data_bits >= 4, "hamming_ecc: data_bits >= 4");
  Network n;
  n.set_name(net::indexed_name("ecc", data_bits));
  std::vector<NodeId> d(data_bits);
  for (std::size_t i = 0; i < data_bits; ++i)
    d[i] = n.add_input(net::indexed_name("d", i));

  std::size_t parity_count = 1;
  while ((std::size_t{1} << parity_count) < data_bits + parity_count + 1)
    ++parity_count;
  ++parity_count;  // overall parity

  // Parity tree p[j] over the data bits whose (1-based) position has bit j
  // set — the classic overlapping-subsets structure.
  std::vector<NodeId> syndrome;
  for (std::size_t j = 0; j < parity_count; ++j) {
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < data_bits; ++i)
      if (j + 1 == parity_count || ((i + 1) >> j) & 1) members.push_back(d[i]);
    if (members.size() < 2) members.push_back(d[j % data_bits]);
    // Balanced 2-input XOR tree.
    std::vector<NodeId> layer = members;
    while (layer.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
        next.push_back(n.add_gate(GateType::kXor, {layer[i], layer[i + 1]}));
      if (layer.size() % 2) next.push_back(layer.back());
      layer = std::move(next);
    }
    syndrome.push_back(layer[0]);
    n.add_output(layer[0], net::indexed_name("p", j));
  }

  // Per-bit corrected output: data XOR (syndrome decodes to this position).
  for (std::size_t i = 0; i < data_bits; ++i) {
    std::vector<NodeId> terms;
    for (std::size_t j = 0; j + 1 < parity_count; ++j) {
      const bool want = ((i + 1) >> j) & 1;
      terms.push_back(want ? syndrome[j]
                           : n.add_gate(GateType::kNot, {syndrome[j]}));
    }
    const NodeId here = terms.size() == 1
                            ? terms[0]
                            : n.add_gate(GateType::kAnd, std::move(terms));
    n.add_output(n.add_gate(GateType::kXor, {d[i], here}),
                 net::indexed_name("c", i));
  }
  return n;
}

}  // namespace cwatpg::gen
