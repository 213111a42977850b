#include "fault/atpg_circuit.hpp"

#include <stdexcept>

namespace cwatpg::fault {

AtpgCircuit build_atpg_circuit(const net::Network& netw,
                               const StuckAtFault& fault) {
  if (fault.node >= netw.node_count())
    throw std::invalid_argument("build_atpg_circuit: no such node");
  if (!fault.is_stem()) {
    const auto fis = netw.fanins(fault.node);
    if (fault.pin < 0 || static_cast<std::size_t>(fault.pin) >= fis.size())
      throw std::invalid_argument("build_atpg_circuit: no such pin");
  }

  // C_psi^sub is the transitive fanin of the whole fanout cone: side
  // inputs of every fanout-cone gate must be justified (net::fault_cone
  // builds the same node set as a Network).
  const std::size_t n = netw.node_count();
  const net::NodeId root = fault_cone_root(fault);
  const std::vector<bool> tfo = net::transitive_fanout(netw, root);
  std::vector<net::NodeId> tfo_nodes;
  for (net::NodeId id = 0; id < n; ++id)
    if (tfo[id]) tfo_nodes.push_back(id);
  const std::vector<bool> in_cone = net::transitive_fanin(netw, tfo_nodes);

  AtpgCircuit atpg(fault);
  atpg.good_of.assign(n, net::kNullNode);
  atpg.faulty_of.assign(n, net::kNullNode);
  atpg.xor_of.assign(n, net::kNullNode);
  net::Network& miter = atpg.miter;
  miter.set_name(netw.name() + "_atpg");

  // Good copy: C_psi^sub, minus the observed kOutput markers (replaced by
  // XOR outputs below).
  for (net::NodeId id = 0; id < n; ++id) {
    if (!in_cone[id]) continue;
    const auto& node = netw.node(id);
    switch (node.type) {
      case net::GateType::kInput:
        atpg.good_of[id] = miter.add_input(netw.name_of(id));
        atpg.support.push_back(id);
        break;
      case net::GateType::kConst0:
      case net::GateType::kConst1:
        atpg.good_of[id] =
            miter.add_const(node.type == net::GateType::kConst1);
        break;
      case net::GateType::kOutput:
        break;  // observed POs become XORs
      default: {
        std::vector<net::NodeId> fis;
        fis.reserve(node.fanins.size());
        for (net::NodeId fi : node.fanins) fis.push_back(atpg.good_of[fi]);
        atpg.good_of[id] =
            miter.add_gate(node.type, std::move(fis), netw.name_of(id));
        break;
      }
    }
  }

  // The stuck value source.
  net::NodeId fault_const = net::kNullNode;
  auto ensure_const = [&]() {
    if (fault_const == net::kNullNode)
      fault_const = miter.add_const(fault.stuck_value, "stuck_const");
    return fault_const;
  };

  // Faulty copy of the fanout cone C_psi^fo. Side inputs tap good signals.
  for (net::NodeId id = 0; id < n; ++id) {
    if (!in_cone[id] || !tfo[id]) continue;
    const auto& node = netw.node(id);
    if (node.type == net::GateType::kOutput) continue;
    if (id == root && fault.is_stem()) {
      atpg.faulty_of[id] = ensure_const();
      continue;
    }
    std::vector<net::NodeId> fis;
    fis.reserve(node.fanins.size());
    for (std::size_t p = 0; p < node.fanins.size(); ++p) {
      if (id == root && !fault.is_stem() &&
          static_cast<std::int32_t>(p) == fault.pin) {
        fis.push_back(ensure_const());
        continue;
      }
      const net::NodeId fi = node.fanins[p];
      fis.push_back(tfo[fi] ? atpg.faulty_of[fi] : atpg.good_of[fi]);
    }
    atpg.faulty_of[id] = miter.add_gate(node.type, std::move(fis),
                                        netw.name_of(id) + "_f");
  }

  // Comparison XORs, one per observed primary output.
  for (net::NodeId po : netw.outputs()) {
    if (!in_cone[po]) continue;
    const net::NodeId driver = netw.fanins(po)[0];
    const net::NodeId good_sig = atpg.good_of[driver];
    net::NodeId faulty_sig;
    if (po == root && !fault.is_stem()) {
      faulty_sig = ensure_const();  // branch fault on the PO pin itself
    } else {
      faulty_sig = tfo[driver] ? atpg.faulty_of[driver] : good_sig;
    }
    const net::NodeId x = miter.add_gate(net::GateType::kXor,
                                         {good_sig, faulty_sig},
                                         netw.name_of(po) + "_xor");
    atpg.xor_of[po] = x;
    miter.add_output(x, netw.name_of(po));
  }
  // A kOutput marker is in the cone exactly when it is in the fanout cone.
  if (miter.outputs().empty())
    throw std::invalid_argument(
        "build_atpg_circuit: fault site reaches no output");

  // Excitation point: the good value of the faulted net.
  atpg.good_fault_net =
      fault.is_stem()
          ? atpg.good_of[root]
          : atpg.good_of[netw.fanins(root)[static_cast<std::size_t>(
                fault.pin)]];

  atpg.fault_const_node = fault_const;
  miter.validate();
  return atpg;
}

std::vector<net::NodeId> transfer_ordering(const net::Network& netw,
                                           const AtpgCircuit& atpg,
                                           const std::vector<net::NodeId>& h) {
  if (h.size() != netw.node_count())
    throw std::invalid_argument("transfer_ordering: |h| != |V_C|");
  std::vector<net::NodeId> order;
  order.reserve(atpg.miter.node_count());
  const bool branch_fault = !atpg.fault.is_stem();
  for (net::NodeId v : h) {
    if (atpg.good_of[v] != net::kNullNode) order.push_back(atpg.good_of[v]);
    if (branch_fault && v == atpg.fault.node &&
        atpg.fault_const_node != net::kNullNode)
      order.push_back(atpg.fault_const_node);
    if (atpg.faulty_of[v] != net::kNullNode)
      order.push_back(atpg.faulty_of[v]);
    if (atpg.xor_of[v] != net::kNullNode) {
      order.push_back(atpg.xor_of[v]);
      // The kOutput marker fed by this XOR sits in the same slot.
      order.push_back(atpg.miter.fanouts(atpg.xor_of[v])[0]);
    }
  }
  if (order.size() != atpg.miter.node_count())
    throw std::logic_error("transfer_ordering: lost miter nodes");
  return order;
}

}  // namespace cwatpg::fault
