#include "gen/kbounded_gen.hpp"

#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace cwatpg::gen {

using net::GateType;
using net::NodeId;

namespace {

/// Assigns node -> block, growing the table as nodes are created.
class BlockTagger {
 public:
  explicit BlockTagger(const net::Network& n) : net_(n) {}

  void tag(NodeId node, std::uint32_t block) {
    if (block_of_.size() < net_.node_count())
      block_of_.resize(net_.node_count(), 0);
    block_of_[node] = block;
    num_blocks_ = std::max(num_blocks_, block + 1);
  }

  /// Tags every node created since `first` (inclusive).
  void tag_range(NodeId first, std::uint32_t block) {
    for (NodeId v = first; v < net_.node_count(); ++v) tag(v, block);
  }

  KBoundedInstance finish(net::Network circuit, std::uint32_t k) {
    block_of_.resize(circuit.node_count(), 0);
    return {std::move(circuit), std::move(block_of_), num_blocks_, k};
  }

 private:
  const net::Network& net_;
  std::vector<std::uint32_t> block_of_;
  std::uint32_t num_blocks_ = 0;
};

}  // namespace

KBoundedInstance kbounded_adder(std::size_t bits) {
  if (bits == 0) throw std::invalid_argument("kbounded_adder: bits >= 1");
  net::Network n;
  n.set_name(net::indexed_name("kb_rca", bits));
  BlockTagger tagger(n);
  std::uint32_t next_block = 0;

  std::vector<NodeId> a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    a[i] = n.add_input(net::indexed_name("a", i));
    tagger.tag(a[i], next_block++);
  }
  for (std::size_t i = 0; i < bits; ++i) {
    b[i] = n.add_input(net::indexed_name("b", i));
    tagger.tag(b[i], next_block++);
  }
  NodeId carry = n.add_input("cin");
  tagger.tag(carry, next_block++);

  for (std::size_t i = 0; i < bits; ++i) {
    const NodeId first = static_cast<NodeId>(n.node_count());
    const NodeId axb = n.add_gate(GateType::kXor, {a[i], b[i]});
    const NodeId sum = n.add_gate(GateType::kXor, {axb, carry});
    const NodeId ab = n.add_gate(GateType::kAnd, {a[i], b[i]});
    const NodeId axb_c = n.add_gate(GateType::kAnd, {axb, carry});
    const NodeId cout = n.add_gate(GateType::kOr, {ab, axb_c});
    n.add_output(sum, net::indexed_name("s", i));
    carry = cout;
    tagger.tag_range(first, next_block++);
  }
  {
    const NodeId first = static_cast<NodeId>(n.node_count());
    n.add_output(carry, "cout");
    tagger.tag_range(first, next_block - 1);  // marker joins the last stage
  }
  return tagger.finish(std::move(n), 3);
}

KBoundedInstance kbounded_cellular(std::size_t cells) {
  if (cells == 0)
    throw std::invalid_argument("kbounded_cellular: cells >= 1");
  net::Network n;
  n.set_name(net::indexed_name("kb_cell", cells));
  BlockTagger tagger(n);
  std::uint32_t next_block = 0;

  NodeId state = n.add_input("s0");
  tagger.tag(state, next_block++);
  std::vector<NodeId> xs(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    xs[i] = n.add_input(net::indexed_name("x", i));
    tagger.tag(xs[i], next_block++);
  }
  for (std::size_t i = 0; i < cells; ++i) {
    const NodeId first = static_cast<NodeId>(n.node_count());
    const NodeId both = n.add_gate(GateType::kAnd, {state, xs[i]});
    const NodeId either = n.add_gate(GateType::kOr, {state, xs[i]});
    const NodeId nboth = n.add_gate(GateType::kNot, {both});
    const NodeId diff = n.add_gate(GateType::kAnd, {either, nboth});
    n.add_output(diff, net::indexed_name("y", i));
    state = n.add_gate(GateType::kOr, {both, diff});
    tagger.tag_range(first, next_block++);
  }
  {
    const NodeId first = static_cast<NodeId>(n.node_count());
    n.add_output(state, "sN");
    tagger.tag_range(first, next_block - 1);
  }
  return tagger.finish(std::move(n), 2);
}

KBoundedInstance kbounded_random(std::size_t blocks, std::size_t block_gates,
                                 std::uint32_t k, std::uint64_t seed) {
  if (blocks == 0 || block_gates == 0 || k < 1)
    throw std::invalid_argument("kbounded_random: degenerate parameters");
  Rng rng(seed);
  net::Network n;
  n.set_name(net::indexed_name("kb_rand", blocks) + "x" +
             std::to_string(block_gates));
  BlockTagger tagger(n);
  std::uint32_t next_block = 0;

  // Outputs of finished blocks not yet consumed by another block.
  std::vector<NodeId> open_outputs;

  for (std::size_t bi = 0; bi < blocks; ++bi) {
    // Pick up to k inputs: unconsumed block outputs first (each used at
    // most once => block DAG is an in-forest), fresh PIs to fill up.
    std::vector<NodeId> inputs;
    const std::size_t want =
        1 + rng.below(k);  // 1..k inputs
    while (inputs.size() < want && !open_outputs.empty() &&
           rng.chance(0.7)) {
      const std::size_t pick = rng.below(open_outputs.size());
      inputs.push_back(open_outputs[pick]);
      open_outputs.erase(open_outputs.begin() +
                         static_cast<std::ptrdiff_t>(pick));
    }
    while (inputs.size() < want) {
      const NodeId pi =
          n.add_input(net::indexed_name("x", n.inputs().size()));
      tagger.tag(pi, next_block++);
      inputs.push_back(pi);
    }

    const NodeId first = static_cast<NodeId>(n.node_count());
    // Random internal gates over the block's inputs and its own nodes
    // (local reconvergence allowed and encouraged).
    std::vector<NodeId> pool = inputs;
    NodeId last = inputs[0];
    for (std::size_t g = 0; g < block_gates; ++g) {
      const NodeId lhs = pool[rng.below(pool.size())];
      const NodeId rhs = pool[rng.below(pool.size())];
      NodeId gate;
      if (lhs == rhs) {
        gate = n.add_gate(GateType::kNot, {lhs});
      } else {
        gate = n.add_gate(rng.chance(0.5) ? GateType::kAnd : GateType::kOr,
                          {lhs, rhs});
      }
      pool.push_back(gate);
      last = gate;
    }
    tagger.tag_range(first, next_block);
    open_outputs.push_back(last);
    ++next_block;
  }

  // Every unconsumed block output becomes a primary output, tagged with
  // its block.
  std::vector<std::uint32_t> blocks_snapshot;
  for (std::size_t i = 0; i < open_outputs.size(); ++i) {
    const NodeId src = open_outputs[i];
    const NodeId first = static_cast<NodeId>(n.node_count());
    n.add_output(src, net::indexed_name("y", i));
    // The PO marker joins its driver's block.
    // (BlockTagger::finish defaults missing tags to 0, so tag explicitly.)
    tagger.tag(first, 0);
    blocks_snapshot.push_back(first);
  }
  KBoundedInstance inst = tagger.finish(std::move(n), k);
  for (NodeId marker : blocks_snapshot)
    inst.block_of[marker] =
        inst.block_of[inst.circuit.fanins(marker)[0]];
  return inst;
}

}  // namespace cwatpg::gen
