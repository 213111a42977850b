#include "sat/encode.hpp"

#include <stdexcept>

namespace cwatpg::sat {

void add_gate_clauses(Cnf& cnf, net::GateType type, Var z,
                      std::span<const Var> ins) {
  Clause wide;
  for_each_gate_clause(type, z, ins, wide, [&](std::span<const Lit> c) {
    cnf.add_clause(Clause(c.begin(), c.end()));
  });
}

Cnf encode_constraints(const net::Network& netw) {
  Cnf cnf(static_cast<Var>(netw.node_count()));
  std::vector<Var> ins;
  for (net::NodeId id = 0; id < netw.node_count(); ++id) {
    const auto& n = netw.node(id);
    switch (n.type) {
      case net::GateType::kInput:
        break;  // free variable
      case net::GateType::kConst0:
        cnf.add_clause({neg(id)});
        break;
      case net::GateType::kConst1:
        cnf.add_clause({pos(id)});
        break;
      case net::GateType::kOutput:
        add_gate_clauses(cnf, net::GateType::kBuf, id, {{n.fanins[0]}});
        break;
      default: {
        ins.assign(n.fanins.begin(), n.fanins.end());
        add_gate_clauses(cnf, n.type, id, ins);
        break;
      }
    }
  }
  return cnf;
}

Cnf encode_circuit_sat(const net::Network& netw) {
  if (netw.outputs().empty())
    throw std::invalid_argument("encode_circuit_sat: circuit has no outputs");
  Cnf cnf = encode_constraints(netw);
  Clause objective;
  for (net::NodeId po : netw.outputs()) objective.push_back(pos(po));
  cnf.add_clause(std::move(objective));
  return cnf;
}

}  // namespace cwatpg::sat
