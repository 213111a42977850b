// Combinational Boolean network (gate-level netlist).
//
// This is the circuit substrate everything else is built on: the SAT
// encoding (Fig. 2 of the paper), the ATPG-SAT miter construction (Fig. 3),
// cut-width estimation, fault simulation, and the generators.
//
// Representation choices:
//  * Single-driver nets: a net is identified with the node that drives it,
//    so "net X" in the paper maps to NodeId X here.
//  * Append-only construction with the invariant that a gate's fanins are
//    added before the gate itself. Consequently NodeIds are already a
//    topological order, which the analysis code exploits heavily.
//  * Primary outputs are explicit kOutput nodes with exactly one fanin, so
//    the hypergraph view (Section 4.2: "gates, inputs and outputs as the
//    nodes") is a 1:1 mapping of nodes.
//
// Thread-safe: a Network is immutable once construction (add_* calls)
// finishes, and every const accessor is a plain read with no lazy caches —
// so any number of threads may analyze, simulate, or encode the same
// Network concurrently. Construction itself is single-threaded.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cwatpg::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kNullNode = static_cast<NodeId>(-1);

enum class GateType : std::uint8_t {
  kInput,   ///< primary input (no fanins)
  kOutput,  ///< primary output marker (exactly one fanin)
  kConst0,  ///< constant 0 (no fanins)
  kConst1,  ///< constant 1 (no fanins)
  kBuf,     ///< buffer (one fanin)
  kNot,     ///< inverter (one fanin)
  kAnd,     ///< n-input AND (>= 1 fanins)
  kNand,    ///< n-input NAND
  kOr,      ///< n-input OR
  kNor,     ///< n-input NOR
  kXor,     ///< n-input XOR (parity)
  kXnor,    ///< n-input XNOR (parity complement)
};

/// Gate-type display name ("AND", "INPUT", ...), matching .bench keywords
/// where one exists.
std::string to_string(GateType type);

/// `prefix` followed by `index` in decimal ("x3"): the names generated
/// circuits give their inputs, outputs and nodes.
std::string indexed_name(std::string_view prefix, std::size_t index);

/// True for kAnd/kNand/kOr/kNor/kXor/kXnor/kNot/kBuf — i.e. logic gates
/// (as opposed to IO markers and constants).
bool is_logic(GateType type);

/// Evaluates a gate of `type` over fanin values packed as 64 parallel
/// patterns per word. kInput/kOutput/kConst handled by the caller.
std::uint64_t eval_gate_word(GateType type, std::span<const std::uint64_t> ins);

class Network {
 public:
  struct Node {
    GateType type = GateType::kInput;
    std::vector<NodeId> fanins;
  };

  Network() = default;

  /// Optional human-readable circuit name (benchmark id).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- construction (append-only) ------------------------------------------

  /// Adds a primary input.
  NodeId add_input(std::string name = {});
  /// Adds a constant node.
  NodeId add_const(bool value, std::string name = {});
  /// Adds a logic gate; all fanins must already exist and be non-kOutput.
  /// Throws std::invalid_argument on arity violations (kNot/kBuf need
  /// exactly 1 fanin; others at least 1).
  NodeId add_gate(GateType type, std::vector<NodeId> fanins,
                  std::string name = {});
  /// Marks `src` as feeding a primary output; returns the kOutput node.
  NodeId add_output(NodeId src, std::string name = {});

  // -- topology -------------------------------------------------------------

  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  GateType type(NodeId id) const { return nodes_[id].type; }
  std::span<const NodeId> fanins(NodeId id) const { return nodes_[id].fanins; }
  std::span<const NodeId> fanouts(NodeId id) const { return fanouts_[id]; }
  std::span<const NodeId> inputs() const { return inputs_; }
  /// kOutput marker nodes, in declaration order.
  std::span<const NodeId> outputs() const { return outputs_; }

  /// Number of logic gates (excludes IO markers and constants).
  std::size_t gate_count() const { return gate_count_; }

  /// Name of a node; auto-generated ("n<id>") when none was given.
  std::string name_of(NodeId id) const;
  /// Reverse lookup of an explicitly assigned name.
  std::optional<NodeId> find(const std::string& name) const;

  std::size_t max_fanin() const;
  std::size_t max_fanout() const;

  /// Logic level of every node (PIs/constants at 0). Computed in id order,
  /// valid because ids are topologically sorted.
  std::vector<std::uint32_t> levels() const;
  /// Maximum logic level (circuit depth).
  std::uint32_t depth() const;

  /// Structural sanity check; throws std::logic_error describing the first
  /// violation (dangling fanin, output-of-output, arity, fanout mismatch).
  void validate() const;

  // -- evaluation -----------------------------------------------------------

  /// Single-pattern evaluation: `pi_values[i]` is the value of inputs()[i].
  /// Returns a value per node (index = NodeId). Constants evaluate to their
  /// value, kOutput nodes copy their fanin.
  std::vector<bool> eval(std::span<const bool> pi_values) const;

  /// Overload for bit-packed vector<bool> patterns (fault::Pattern).
  std::vector<bool> eval(const std::vector<bool>& pi_values) const;

 private:
  NodeId push_node(Node node, std::string name);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> fanouts_;
  std::vector<std::string> node_names_;  // empty => auto-generated
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::size_t gate_count_ = 0;
};

}  // namespace cwatpg::net
