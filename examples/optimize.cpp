// ATPG as a logic optimizer — redundancy removal with equivalence proof.
//
//   $ ./optimize
//
// The paper's introduction lists logic optimization among ATPG's
// applications: an untestable stuck-at fault licenses wiring the faulted
// connection to its stuck value. This example builds a deliberately
// redundant datapath (absorption terms and dead logic injected into an
// ALU), runs the redundancy-removal fixpoint, proves the rewrite
// equivalent with the SAT-based checker, and shows fault coverage rising
// to 100%.
#include <iostream>

#include "fault/redundancy.hpp"
#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "netlist/decompose.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "verify/cec.hpp"

namespace {

/// An ALU with hand-injected redundancy: absorption wrappers around two
/// outputs and a dangling chain.
cwatpg::net::Network redundant_design() {
  using namespace cwatpg;
  const net::Network alu = net::decompose(gen::simple_alu(4));
  net::Network n;
  n.set_name("alu4_redundant");
  std::vector<net::NodeId> map(alu.node_count());
  std::vector<net::NodeId> po_drivers;
  for (net::NodeId id = 0; id < alu.node_count(); ++id) {
    const auto& node = alu.node(id);
    std::vector<net::NodeId> fis;
    for (net::NodeId fi : node.fanins) fis.push_back(map[fi]);
    switch (node.type) {
      case net::GateType::kInput:
        map[id] = n.add_input(alu.name_of(id));
        break;
      case net::GateType::kOutput:
        po_drivers.push_back(fis[0]);
        break;
      default:
        map[id] = n.add_gate(node.type, std::move(fis));
        break;
    }
  }
  // Absorption: y -> AND(y, OR(y, x)) is the identity, but untestably so.
  const net::NodeId x = n.inputs()[0];
  for (std::size_t o = 0; o < po_drivers.size(); ++o) {
    net::NodeId driver = po_drivers[o];
    if (o % 2 == 0) {
      const auto wrap = n.add_gate(net::GateType::kOr, {driver, x});
      driver = n.add_gate(net::GateType::kAnd, {driver, wrap});
    }
    n.add_output(driver, net::indexed_name("y", o));
  }
  // Dead logic: a chain no output observes.
  auto dead = n.add_gate(net::GateType::kNot, {x});
  n.add_gate(net::GateType::kAnd, {dead, n.inputs()[1]});
  return n;
}

}  // namespace

int main() {
  using namespace cwatpg;
  const net::Network design = redundant_design();
  std::cout << "design: " << design.name() << ", " << design.gate_count()
            << " gates\n\n";

  // Before: coverage is stuck below 100%.
  fault::AtpgOptions atpg_opts;
  atpg_opts.random_blocks = 2;
  const fault::AtpgResult before = fault::run_atpg(design, atpg_opts);

  Timer timer;
  const fault::RedundancyResult opt = fault::remove_redundancy(design);
  const double seconds = timer.seconds();
  const fault::AtpgResult after = fault::run_atpg(opt.circuit, atpg_opts);

  Table t({"metric", "before", "after"});
  t.add_row({"gates", cell(opt.gates_before), cell(opt.gates_after)});
  t.add_row({"fault coverage %", cell(before.fault_coverage() * 100, 2),
             cell(after.fault_coverage() * 100, 2)});
  t.add_row({"redundant faults", cell(before.num_untestable),
             cell(after.num_untestable)});
  t.print(std::cout);
  std::cout << "\nremoved " << opt.removed_faults << " redundancies in "
            << opt.rounds << " rounds (" << cell(seconds, 2) << " s)\n";

  const verify::CecResult cec =
      verify::check_equivalence(design, opt.circuit);
  std::cout << "SAT equivalence check: "
            << (cec.equivalent ? "EQUIVALENT (proof by UNSAT)"
                               : "NOT EQUIVALENT — bug!")
            << "\n";
  return cec.equivalent ? 0 : 1;
}
