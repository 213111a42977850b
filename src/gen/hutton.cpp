#include "gen/hutton.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace cwatpg::gen {

using net::GateType;
using net::Network;
using net::NodeId;

// Generation model (after circ/gen's fanout-controlled wiring):
//
// A pool of *open* signals (driven but not yet consumed) starts as the
// PIs. Each new gate consumes `arity` signals: with probability `locality`
// a fanin is *popped* from a spatially nearby slot of the open pool (the
// common case — signals consumed exactly once, which grows fanout-free,
// tree-like structure with wire-length locality), otherwise it *reuses* a
// random already-created signal without popping (fanout > 1 — the
// reconvergence knob). The gate's output is inserted back near its fanins'
// slot, preserving spatial structure. Whatever remains open at the end
// feeds the primary outputs, so there is no dead logic.
//
// The paper's thesis is that practical circuits have *minimal*
// reconvergence; `locality` near 1 reproduces that regime (cut-width
// ~log n), while lowering it injects the global reconvergence that makes
// cut-width — and ATPG — blow up.
net::Network hutton_random(const HuttonParams& params) {
  if (params.num_gates < 1 || params.num_inputs < 1 ||
      params.num_outputs < 1 || params.max_fanin < 2)
    throw std::invalid_argument("hutton_random: degenerate parameters");

  Rng rng(params.seed);
  Network n;
  n.set_name(net::indexed_name("hutton", params.num_gates) + "_s" +
             std::to_string(params.seed));

  std::vector<NodeId> open;
  open.reserve(params.num_inputs + params.num_gates);
  for (std::size_t i = 0; i < params.num_inputs; ++i)
    open.push_back(n.add_input(net::indexed_name("x", i)));

  // Long (position-free) wires are what breaks the log-width property, and
  // the published suites show only O(log n) worth of them; keep an explicit
  // budget that shrinks as `locality` rises.
  std::int64_t long_wire_budget =
      params.unbounded_reconvergence
          ? static_cast<std::int64_t>(params.num_gates * 3)
          : static_cast<std::int64_t>(
                (1.5 - params.locality) * 8.0 *
                std::log2(static_cast<double>(params.num_gates) + 2.0));

  for (std::size_t g = 0; g < params.num_gates; ++g) {
    const auto arity = static_cast<std::size_t>(
        rng.range(2, static_cast<std::int64_t>(params.max_fanin)));
    // Keep the pool wide: it is the circuit's "level width". Letting it
    // collapse to a handful of slots destroys the positional structure
    // (every signal becomes adjacent to every other) and with it the
    // log-width property; real suites keep level width on the order of
    // their PI count.
    const std::size_t reserve_floor =
        std::max(params.num_outputs, (params.num_inputs * 3) / 4);

    const std::size_t center = rng.below(open.size());
    const double relative =
        (static_cast<double>(center) + 0.5) / static_cast<double>(open.size());
    std::vector<NodeId> fis;
    std::size_t insert_at = center;
    for (std::size_t a = 0; a < arity; ++a) {
      const bool may_pop = open.size() > std::max<std::size_t>(
                                             reserve_floor, arity);
      if (may_pop && rng.chance(params.locality)) {
        // A nearby open signal. Usually popped (consumed exactly once:
        // tree growth); sometimes left open (a local fanout-2 net — the
        // bounded-span reconvergence the k-bounded class allows).
        // Constant spread: a proportional window would make every edge
        // span a fixed *fraction* of the strip, forcing linear cut growth.
        constexpr std::int64_t spread = 3;
        const std::int64_t slot = std::clamp<std::int64_t>(
            static_cast<std::int64_t>(center) + rng.range(-spread, spread),
            0, static_cast<std::int64_t>(open.size()) - 1);
        const auto index = static_cast<std::size_t>(slot);
        fis.push_back(open[index]);
        if (rng.chance(0.8)) {
          open.erase(open.begin() + slot);
          insert_at = std::min<std::size_t>(index, open.size());
        }
      } else if (long_wire_budget <= 0 ||
                 rng.chance(params.unbounded_reconvergence ? 0.3 : 0.8)) {
        // A position-local primary input: real circuits re-consume their
        // PIs heavily, but each PI serves a bounded region, so its (single)
        // signal hyperedge spans a bounded stretch of any good ordering.
        const auto pi_center = static_cast<std::int64_t>(
            relative * static_cast<double>(params.num_inputs));
        constexpr std::int64_t pi_spread = 2;
        const std::int64_t pick = std::clamp<std::int64_t>(
            pi_center + rng.range(-pi_spread, pi_spread), 0,
            static_cast<std::int64_t>(params.num_inputs) - 1);
        fis.push_back(n.inputs()[static_cast<std::size_t>(pick)]);
      } else {
        // Global reuse of any existing signal: a genuinely reconvergent,
        // long wire, drawn from the O(log n) budget.
        fis.push_back(static_cast<NodeId>(rng.below(n.node_count())));
        --long_wire_budget;
      }
    }
    std::sort(fis.begin(), fis.end());
    fis.erase(std::unique(fis.begin(), fis.end()), fis.end());
    NodeId gate;
    if (fis.size() == 1) {
      gate = n.add_gate(GateType::kNot, {fis[0]});
    } else {
      gate = n.add_gate(rng.chance(0.5) ? GateType::kAnd : GateType::kOr,
                        fis);
    }
    if (rng.chance(0.2)) gate = n.add_gate(GateType::kNot, {gate});
    open.insert(open.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(insert_at, open.size())),
                gate);
  }

  // Primary outputs: every still-open logic signal, plus any dangling gate
  // (reused-then-replaced corner cases), so no dead logic remains.
  std::size_t po = 0;
  for (NodeId id : open)
    if (net::is_logic(n.type(id)))
      n.add_output(id, net::indexed_name("y", po++));
  for (NodeId id = 0; id < n.node_count(); ++id)
    if (net::is_logic(n.type(id)) && n.fanouts(id).empty())
      n.add_output(id, net::indexed_name("y", po++));
  if (po == 0) n.add_output(open.front(), "y0");
  return n;
}

}  // namespace cwatpg::gen
