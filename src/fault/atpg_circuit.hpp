// Construction of the ATPG-SAT circuit C_psi^ATPG (§2, Figure 3) and the
// Lemma 4.2 / 4.3 ordering transfer h -> h_psi.
//
// C_psi^ATPG is built from:
//   * C_psi^sub — the good subcircuit: TFI(TFO(fault site));
//   * C_psi^fo  — a faulty copy of the fanout cone of the site, with the
//     faulted net replaced by the stuck value, side inputs tapping the good
//     subcircuit;
//   * one XOR per observed primary output, pairing the good and faulty
//     versions; the XOR outputs are the primary outputs of C_psi^ATPG.
// CIRCUIT-SAT on the result (encode_circuit_sat: "at least one output is 1")
// is satisfied exactly by the test vectors for the fault.
//
// Two ways to get that instance as CNF:
//   * build_atpg_circuit + sat::encode_circuit_sat materialize the miter as
//     a Network, for the paper's analyses (orderings, widths, Lemma 4.2);
//   * AtpgEmitter streams the same clauses, plus the excitation unit,
//     straight from the host network's cone — what the ATPG engine solves.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/cone.hpp"
#include "netlist/network.hpp"
#include "sat/cnf.hpp"

namespace cwatpg::fault {

struct AtpgCircuit {
  net::Network miter;  ///< C_psi^ATPG
  /// Original NodeId -> good-copy id in `miter` (kNullNode if absent).
  std::vector<net::NodeId> good_of;
  /// Original NodeId -> faulty-copy id in `miter` (kNullNode if absent;
  /// only fanout-cone nodes have faulty copies). For a stem fault the
  /// faulty copy of the site is the constant node.
  std::vector<net::NodeId> faulty_of;
  /// Original NodeId -> XOR comparison node (kNullNode except for observed
  /// kOutput markers of the original network).
  std::vector<net::NodeId> xor_of;
  /// Original PIs feeding the miter (subset of net.inputs(), in order).
  std::vector<net::NodeId> support;
  /// Good-circuit id of the faulted net's driver inside the miter —
  /// asserting it to ~stuck_value is the excitation condition.
  net::NodeId good_fault_net = net::kNullNode;
  /// The constant node carrying the stuck value (equals faulty_of[site]
  /// for stem faults).
  net::NodeId fault_const_node = net::kNullNode;

  const StuckAtFault fault;
  explicit AtpgCircuit(StuckAtFault f) : fault(f) {}
};

/// Builds C_psi^ATPG. Throws std::invalid_argument when the fault site
/// reaches no primary output (trivially untestable, as in net::fault_cone).
/// A stem fault on a kOutput marker is built as the equivalent branch
/// fault on the marker's pin 0 (AtpgCircuit::fault is that branch fault).
///
/// Thread-safe: yes; reads `net` (immutable after construction) and builds
/// a fresh AtpgCircuit per call. The returned AtpgCircuit itself is a
/// plain value type: safe to move across threads, not internally
/// synchronized for concurrent mutation.
AtpgCircuit build_atpg_circuit(const net::Network& net,
                               const StuckAtFault& fault);

/// Receives an emitted instance: begin() once with its variable count,
/// then every clause in order, each already in sat::canonicalize()'s form.
class ClauseSink {
 public:
  virtual void begin(sat::Var num_vars) = 0;
  virtual void add(std::span<const sat::Lit> clause) = 0;

 protected:
  ~ClauseSink() = default;
};

/// Emits the per-fault SAT instance:
/// encode_circuit_sat(build_atpg_circuit(net, fault).miter) followed by the
/// excitation unit (the good value of the faulted net differs from the
/// stuck value), with the same variable numbering and the same clause
/// sequence, but walking only the fault's cone — no Network, names or
/// whole-host scans. The walk's scratch (epoch-stamped cone marks and
/// per-node variables, sized to the largest network seen) is kept, so a
/// warm emitter allocates nothing.
///
/// Thread-safe: no; one emitter per thread (generate_test keeps one per
/// thread). `net` is only read.
class AtpgEmitter {
 public:
  struct Instance {
    sat::Var num_vars = 0;
    std::size_t num_clauses = 0;
  };

  /// Emits the instance into `sink`. Returns nullopt, emitting nothing,
  /// where build_atpg_circuit throws std::invalid_argument: no such node
  /// or pin, or a site that reaches no primary output. A stem fault on a
  /// kOutput marker gets its pin-0 branch fault's instance, as in
  /// build_atpg_circuit.
  std::optional<Instance> emit(const net::Network& net,
                               const StuckAtFault& fault, ClauseSink& sink);

  /// After an emit() that returned an instance: the variable of `node`'s
  /// good copy, or sat::kNullVar when `node` is outside the cone.
  sat::Var good_var(net::NodeId node) const {
    return cone_mark_[node] == epoch_ ? good_[node] : sat::kNullVar;
  }

 private:
  bool in_tfo(net::NodeId v) const { return tfo_mark_[v] == epoch_; }
  /// Canonicalizes `lits` and hands the result to `sink`, unless it is a
  /// tautology.
  void add(ClauseSink& sink, std::span<const sat::Lit> lits);
  void add_unit(ClauseSink& sink, sat::Lit lit) {
    add(sink, std::span<const sat::Lit>(&lit, 1));
  }
  /// The clauses of gate `z` over the fanin variables in ins_.
  void add_gate(ClauseSink& sink, net::GateType type, sat::Var z);

  std::size_t num_clauses_ = 0;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> tfo_mark_;   ///< == epoch_: in the fanout cone
  std::vector<std::uint32_t> cone_mark_;  ///< == epoch_: in C_psi^sub
  std::vector<sat::Var> good_;            ///< valid where cone-marked
  std::vector<sat::Var> faulty_;          ///< valid where tfo-marked
  std::vector<net::NodeId> cone_;         ///< C_psi^sub, ascending
  std::vector<net::NodeId> stack_;
  std::vector<sat::Var> ins_;    ///< fanin variables of the gate at hand
  sat::Clause clause_, wide_;    ///< canonicalize() buffer, wide gate clause
};

/// Lemma 4.2/4.3 ordering transfer: given an ordering `h` of the nodes of
/// the original network C, produce the interleaved ordering h_psi of the
/// miter's nodes — each faulty copy immediately after its good counterpart,
/// XORs and output markers in the slots of the original kOutput nodes. The
/// lemma guarantees W(C_psi^ATPG, h_psi) <= 2*W(C, h) + 2 (property-tested
/// across circuit families in the test suite).
std::vector<net::NodeId> transfer_ordering(
    const net::Network& net, const AtpgCircuit& atpg,
    const std::vector<net::NodeId>& h);

}  // namespace cwatpg::fault
