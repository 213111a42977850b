// CIRCUIT-SAT encoding (Figure 2 + the output clause of §2).
//
// f(C) has one variable per signal net; we allocate one variable per
// network node (variable v == NodeId v — kOutput markers get a variable
// constrained equal to their fanin, matching the hypergraph view where
// outputs are nodes). Each gate contributes the characteristic clauses of
// Figure 2; finally one clause asserts that at least one primary output
// is 1.
#pragma once

#include <initializer_list>
#include <stdexcept>

#include "netlist/network.hpp"
#include "sat/cnf.hpp"

namespace cwatpg::sat {

/// Calls `emit(std::span<const Lit>)` once per clause of one gate, output
/// variable `z`, fanin variables `ins`, in the order add_gate_clauses adds
/// them and before canonicalize(). `wide` is scratch for the clause of an
/// AND/OR gate that spans every fanin. Supports AND/NAND/OR/NOR/NOT/BUF of
/// any arity and 2-input XOR/XNOR (wider XORs must be decomposed first;
/// throws std::invalid_argument).
template <class Emit>
void for_each_gate_clause(net::GateType type, Var z, std::span<const Var> ins,
                          Clause& wide, Emit&& emit) {
  using net::GateType;
  auto clause = [&](std::initializer_list<Lit> lits) {
    emit(std::span<const Lit>(lits.begin(), lits.size()));
  };
  switch (type) {
    case GateType::kBuf:
      clause({pos(ins[0]), neg(z)});
      clause({neg(ins[0]), pos(z)});
      return;
    case GateType::kNot:
      clause({pos(ins[0]), pos(z)});
      clause({neg(ins[0]), neg(z)});
      return;
    case GateType::kAnd:
    case GateType::kNand: {
      const Lit zt = type == GateType::kAnd ? pos(z) : neg(z);
      // Each input low forces output "false"; all inputs high force "true".
      wide.clear();
      for (Var a : ins) {
        clause({pos(a), ~zt});
        wide.push_back(neg(a));
      }
      wide.push_back(zt);
      emit(std::span<const Lit>(wide));
      return;
    }
    case GateType::kOr:
    case GateType::kNor: {
      const Lit zt = type == GateType::kOr ? pos(z) : neg(z);
      wide.clear();
      for (Var a : ins) {
        clause({neg(a), zt});
        wide.push_back(pos(a));
      }
      wide.push_back(~zt);
      emit(std::span<const Lit>(wide));
      return;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      if (ins.size() != 2)
        throw std::invalid_argument(
            "add_gate_clauses: XOR/XNOR must be 2-input (decompose first)");
      const Var a = ins[0];
      const Var b = ins[1];
      const Lit zp = type == GateType::kXnor ? neg(z) : pos(z);
      clause({neg(a), neg(b), ~zp});
      clause({pos(a), pos(b), ~zp});
      clause({neg(a), pos(b), zp});
      clause({pos(a), neg(b), zp});
      return;
    }
    default:
      throw std::invalid_argument(
          "add_gate_clauses: type has no gate function");
  }
}

/// Clauses for one gate (for_each_gate_clause's), added to `cnf`.
void add_gate_clauses(Cnf& cnf, net::GateType type, Var z,
                      std::span<const Var> ins);

/// Encodes CIRCUIT-SAT(C): all gate clauses, unit clauses for constants,
/// equality clauses for kOutput markers, plus the clause (o1 ∨ … ∨ op).
/// Throws std::invalid_argument if the circuit has no primary output.
Cnf encode_circuit_sat(const net::Network& net);

/// Gate clauses only — no output clause. Used when the caller adds its own
/// objective (e.g. a specific output forced to a value).
Cnf encode_constraints(const net::Network& net);

}  // namespace cwatpg::sat
