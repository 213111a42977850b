#include "fault/atpg_circuit.hpp"

#include <algorithm>
#include <stdexcept>

#include "sat/encode.hpp"

namespace cwatpg::fault {

namespace {

/// A stem fault on a kOutput marker sticks the output's observed value,
/// exactly as the branch fault on the marker's pin 0 does, so both
/// instance builders build that branch fault's instance.
StuckAtFault instance_fault(const net::Network& netw, StuckAtFault fault) {
  if (fault.is_stem() && fault.node < netw.node_count() &&
      netw.type(fault.node) == net::GateType::kOutput)
    fault.pin = 0;
  return fault;
}

}  // namespace

AtpgCircuit build_atpg_circuit(const net::Network& netw,
                               const StuckAtFault& requested) {
  const StuckAtFault fault = instance_fault(netw, requested);
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

void AtpgEmitter::add(ClauseSink& sink, std::span<const sat::Lit> lits) {
  clause_.assign(lits.begin(), lits.end());
  const std::size_t size = sat::canonicalize(clause_);
  if (size == 0) return;
  sink.add(std::span<const sat::Lit>(clause_.data(), size));
  ++num_clauses_;
}

void AtpgEmitter::add_gate(ClauseSink& sink, net::GateType type, sat::Var z) {
  sat::for_each_gate_clause(
      type, z, ins_, wide_,
      [&](std::span<const sat::Lit> c) { add(sink, c); });
}

std::optional<AtpgEmitter::Instance> AtpgEmitter::emit(
    const net::Network& netw, const StuckAtFault& requested,
    ClauseSink& sink) {
  using net::GateType;
  const StuckAtFault fault = instance_fault(netw, requested);
  const std::size_t n = netw.node_count();
  if (fault.node >= n) return std::nullopt;
  const net::NodeId root = fault_cone_root(fault);
  const bool stem = fault.is_stem();
  if (!stem && (fault.pin < 0 ||
                static_cast<std::size_t>(fault.pin) >= netw.fanins(root).size()))
    return std::nullopt;

  if (tfo_mark_.size() < n) {
    tfo_mark_.resize(n, 0);
    cone_mark_.resize(n, 0);
    good_.resize(n);
    faulty_.resize(n);
  }
  if (++epoch_ == 0) {  // wrapped: no stale mark may equal a live epoch
    std::fill(tfo_mark_.begin(), tfo_mark_.end(), 0);
    std::fill(cone_mark_.begin(), cone_mark_.end(), 0);
    epoch_ = 1;
  }

  // C_psi^sub: the fanout cone of the root, then its transitive fanin.
  cone_.assign(1, root);
  tfo_mark_[root] = cone_mark_[root] = epoch_;
  stack_.assign(1, root);
  while (!stack_.empty()) {
    const net::NodeId v = stack_.back();
    stack_.pop_back();
    for (const net::NodeId fo : netw.fanouts(v)) {
      if (in_tfo(fo)) continue;
      tfo_mark_[fo] = cone_mark_[fo] = epoch_;
      cone_.push_back(fo);
      stack_.push_back(fo);
    }
  }
  stack_.assign(cone_.begin(), cone_.end());
  while (!stack_.empty()) {
    const net::NodeId v = stack_.back();
    stack_.pop_back();
    for (const net::NodeId fi : netw.fanins(v)) {
      if (cone_mark_[fi] == epoch_) continue;
      cone_mark_[fi] = epoch_;
      cone_.push_back(fi);
      stack_.push_back(fi);
    }
  }
  // Miter ids follow host ids (which are topological) within each part,
  // as build_atpg_circuit adds them.
  std::sort(cone_.begin(), cone_.end());

  // Variables, in build_atpg_circuit's node order: the good copy (no
  // kOutput markers), then the faulty copy with the stuck constant created
  // where it is first used, then an (XOR, kOutput marker) pair per
  // observed output.
  sat::Var next = 0;
  std::size_t num_outputs = 0;
  for (const net::NodeId v : cone_) {
    if (netw.type(v) == GateType::kOutput) {
      good_[v] = sat::kNullVar;
      ++num_outputs;
    } else {
      good_[v] = next++;
    }
  }
  // A kOutput marker is in the cone exactly when it is in the fanout cone.
  if (num_outputs == 0) return std::nullopt;
  sat::Var stuck_const = sat::kNullVar;
  for (const net::NodeId v : cone_) {
    if (!in_tfo(v) || netw.type(v) == GateType::kOutput) continue;
    if (v == root) {
      stuck_const = next++;
      if (stem) {
        faulty_[v] = stuck_const;
        continue;
      }
    }
    faulty_[v] = next++;
  }
  // A branch fault on an output marker's pin: the constant comes just
  // before that (only) output's XOR.
  const bool po_pin_fault = !stem && netw.type(root) == GateType::kOutput;
  if (po_pin_fault) stuck_const = next++;
  const sat::Var first_xor = next;
  const sat::Var num_vars = next + 2 * static_cast<sat::Var>(num_outputs);

  num_clauses_ = 0;
  sink.begin(num_vars);
  const sat::Lit stuck_unit(stuck_const, !fault.stuck_value);

  // Good copy.
  for (const net::NodeId v : cone_) {
    const GateType type = netw.type(v);
    switch (type) {
      case GateType::kInput:
      case GateType::kOutput:
        break;
      case GateType::kConst0:
      case GateType::kConst1:
        add_unit(sink, sat::Lit(good_[v], type == GateType::kConst0));
        break;
      default:
        ins_.clear();
        for (const net::NodeId fi : netw.fanins(v)) ins_.push_back(good_[fi]);
        add_gate(sink, type, good_[v]);
        break;
    }
  }
  // Faulty copy: side inputs tap the good copy.
  for (const net::NodeId v : cone_) {
    if (!in_tfo(v) || netw.type(v) == GateType::kOutput) continue;
    if (v == root) {
      add_unit(sink, stuck_unit);
      if (stem) continue;
    }
    const auto fis = netw.fanins(v);
    ins_.clear();
    for (std::size_t p = 0; p < fis.size(); ++p) {
      if (v == root && static_cast<std::int32_t>(p) == fault.pin)
        ins_.push_back(stuck_const);
      else
        ins_.push_back(in_tfo(fis[p]) ? faulty_[fis[p]] : good_[fis[p]]);
    }
    add_gate(sink, netw.type(v), faulty_[v]);
  }
  // Comparison XORs and their output markers.
  sat::Var x = first_xor;
  for (const net::NodeId po : cone_) {
    if (netw.type(po) != GateType::kOutput) continue;
    const net::NodeId driver = netw.fanins(po)[0];
    ins_.assign(1, good_[driver]);
    if (po_pin_fault) {
      add_unit(sink, stuck_unit);
      ins_.push_back(stuck_const);
    } else {
      // An observed output's driver is in the fanout cone.
      ins_.push_back(faulty_[driver]);
    }
    add_gate(sink, GateType::kXor, x);
    ins_.assign(1, x);
    add_gate(sink, GateType::kBuf, x + 1);
    x += 2;
  }
  // CIRCUIT-SAT's objective: some output marker is 1.
  wide_.clear();
  for (sat::Var out = first_xor + 1; out < num_vars; out += 2)
    wide_.push_back(sat::pos(out));
  add(sink, wide_);
  // Excitation: the good value of the faulted net differs from the stuck
  // value. Implied by any satisfying assignment; stating it as a unit
  // clause prunes the search (TEGUS does the same).
  const net::NodeId site =
      stem ? root : netw.fanins(root)[static_cast<std::size_t>(fault.pin)];
  add_unit(sink, sat::Lit(good_[site], fault.stuck_value));
  return Instance{num_vars, num_clauses_};
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
