#include "netlist/network.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace cwatpg::net {

std::string to_string(GateType type) {
  switch (type) {
    case GateType::kInput: return "INPUT";
    case GateType::kOutput: return "OUTPUT";
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
    case GateType::kBuf: return "BUFF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
  }
  return "?";
}

std::string indexed_name(std::string_view prefix, std::size_t index) {
  // Appended, not `prefix + std::to_string(index)`: GCC 12 raises a false
  // -Wrestrict inside that operator+ at -O3.
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

bool is_logic(GateType type) {
  switch (type) {
    case GateType::kInput:
    case GateType::kOutput:
    case GateType::kConst0:
    case GateType::kConst1:
      return false;
    default:
      return true;
  }
}

std::uint64_t eval_gate_word(GateType type,
                             std::span<const std::uint64_t> ins) {
  switch (type) {
    case GateType::kBuf:
      return ins[0];
    case GateType::kNot:
      return ~ins[0];
    case GateType::kAnd:
    case GateType::kNand: {
      std::uint64_t acc = ~0ULL;
      for (std::uint64_t v : ins) acc &= v;
      return type == GateType::kAnd ? acc : ~acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      std::uint64_t acc = 0ULL;
      for (std::uint64_t v : ins) acc |= v;
      return type == GateType::kOr ? acc : ~acc;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      std::uint64_t acc = 0ULL;
      for (std::uint64_t v : ins) acc ^= v;
      return type == GateType::kXor ? acc : ~acc;
    }
    case GateType::kConst0:
      return 0ULL;
    case GateType::kConst1:
      return ~0ULL;
    case GateType::kInput:
    case GateType::kOutput:
      throw std::logic_error("eval_gate_word: IO node has no gate function");
  }
  return 0;
}

NodeId Network::push_node(Node node, std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  if (nodes_.size() >= static_cast<std::size_t>(kNullNode))
    throw std::length_error("Network: node count overflow");
  for (NodeId fi : node.fanins) {
    if (fi >= id)
      throw std::invalid_argument("Network: fanin does not exist yet (ids must be topological)");
    if (nodes_[fi].type == GateType::kOutput)
      throw std::invalid_argument("Network: kOutput nodes cannot drive logic");
    fanouts_[fi].push_back(id);
  }
  nodes_.push_back(std::move(node));
  fanouts_.emplace_back();
  node_names_.push_back(std::move(name));
  return id;
}

NodeId Network::add_input(std::string name) {
  const NodeId id = push_node(Node{GateType::kInput, {}}, std::move(name));
  inputs_.push_back(id);
  return id;
}

NodeId Network::add_const(bool value, std::string name) {
  return push_node(
      Node{value ? GateType::kConst1 : GateType::kConst0, {}},
      std::move(name));
}

NodeId Network::add_gate(GateType type, std::vector<NodeId> fanins,
                         std::string name) {
  if (!is_logic(type))
    throw std::invalid_argument("add_gate: type is not a logic gate");
  const bool unary = type == GateType::kNot || type == GateType::kBuf;
  if (unary && fanins.size() != 1)
    throw std::invalid_argument("add_gate: NOT/BUFF need exactly one fanin");
  if (!unary && fanins.empty())
    throw std::invalid_argument("add_gate: gate needs at least one fanin");
  const NodeId id =
      push_node(Node{type, std::move(fanins)}, std::move(name));
  ++gate_count_;
  return id;
}

NodeId Network::add_output(NodeId src, std::string name) {
  if (src >= nodes_.size())
    throw std::invalid_argument("add_output: source does not exist");
  const NodeId id =
      push_node(Node{GateType::kOutput, {src}}, std::move(name));
  outputs_.push_back(id);
  return id;
}

std::string Network::name_of(NodeId id) const {
  if (id < node_names_.size() && !node_names_[id].empty())
    return node_names_[id];
  return indexed_name("n", id);
}

std::optional<NodeId> Network::find(const std::string& name) const {
  for (NodeId id = 0; id < node_names_.size(); ++id)
    if (node_names_[id] == name) return id;
  return std::nullopt;
}

std::size_t Network::max_fanin() const {
  std::size_t m = 0;
  for (const auto& n : nodes_)
    if (is_logic(n.type)) m = std::max(m, n.fanins.size());
  return m;
}

std::size_t Network::max_fanout() const {
  std::size_t m = 0;
  for (const auto& fo : fanouts_) m = std::max(m, fo.size());
  return m;
}

std::vector<std::uint32_t> Network::levels() const {
  std::vector<std::uint32_t> lvl(nodes_.size(), 0);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    std::uint32_t m = 0;
    for (NodeId fi : nodes_[id].fanins) m = std::max(m, lvl[fi] + 1);
    lvl[id] = m;
  }
  return lvl;
}

std::uint32_t Network::depth() const {
  const auto lvl = levels();
  std::uint32_t d = 0;
  for (NodeId po : outputs_) d = std::max(d, lvl[po]);
  return d;
}

void Network::validate() const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    switch (n.type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
        if (!n.fanins.empty())
          throw std::logic_error("validate: source node has fanins at " +
                                 name_of(id));
        break;
      case GateType::kOutput:
        if (n.fanins.size() != 1)
          throw std::logic_error("validate: output arity at " + name_of(id));
        break;
      case GateType::kNot:
      case GateType::kBuf:
        if (n.fanins.size() != 1)
          throw std::logic_error("validate: unary gate arity at " +
                                 name_of(id));
        break;
      default:
        if (n.fanins.empty())
          throw std::logic_error("validate: gate with no fanins at " +
                                 name_of(id));
        break;
    }
    for (NodeId fi : n.fanins) {
      if (fi >= id)
        throw std::logic_error("validate: non-topological fanin at " +
                               name_of(id));
      const auto& fo = fanouts_[fi];
      if (std::count(fo.begin(), fo.end(), id) !=
          std::count(n.fanins.begin(), n.fanins.end(), fi))
        throw std::logic_error("validate: fanout list mismatch at " +
                               name_of(fi));
    }
  }
}

std::vector<bool> Network::eval(const std::vector<bool>& pi_values) const {
  const auto unpacked = std::make_unique<bool[]>(pi_values.size());
  for (std::size_t i = 0; i < pi_values.size(); ++i)
    unpacked[i] = pi_values[i];
  return eval(std::span<const bool>(unpacked.get(), pi_values.size()));
}

std::vector<bool> Network::eval(std::span<const bool> pi_values) const {
  if (pi_values.size() != inputs_.size())
    throw std::invalid_argument("eval: wrong number of PI values");
  std::vector<bool> value(nodes_.size(), false);
  for (std::size_t i = 0; i < inputs_.size(); ++i)
    value[inputs_[i]] = pi_values[i];
  std::vector<std::uint64_t> buf;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    switch (n.type) {
      case GateType::kInput:
        break;  // already set from pi_values
      case GateType::kConst0:
        value[id] = false;
        break;
      case GateType::kConst1:
        value[id] = true;
        break;
      case GateType::kOutput:
        value[id] = value[n.fanins[0]];
        break;
      default: {
        buf.clear();
        for (NodeId fi : n.fanins)
          buf.push_back(value[fi] ? ~0ULL : 0ULL);
        value[id] = (eval_gate_word(n.type, buf) & 1ULL) != 0;
        break;
      }
    }
  }
  return value;
}

}  // namespace cwatpg::net
