// google-benchmark microbenchmarks for the performance-critical kernels:
// CNF encoding, CDCL solving of ATPG-SAT miters, unit propagation load,
// fault simulation, FM bisection, cut-profile evaluation, and the
// Algorithm 1 engine. These guard the constants behind the experiment
// harnesses.
#include <benchmark/benchmark.h>

#include "core/bounds.hpp"
#include "core/cutwidth.hpp"
#include "core/mla.hpp"
#include "fault/fsim.hpp"
#include "fault/tegus.hpp"
#include "gen/hutton.hpp"
#include "gen/structured.hpp"
#include "netlist/decompose.hpp"
#include "partition/multilevel.hpp"
#include "sat/cache_sat.hpp"
#include "sat/encode.hpp"
#include "util/rng.hpp"

namespace {

using namespace cwatpg;

net::Network test_circuit(std::size_t gates) {
  gen::HuttonParams p;
  p.num_gates = gates;
  p.num_inputs = std::max<std::size_t>(8, gates / 10);
  p.num_outputs = std::max<std::size_t>(4, gates / 20);
  p.seed = 42;
  return net::decompose(gen::hutton_random(p));
}

void BM_EncodeCircuitSat(benchmark::State& state) {
  const net::Network n = test_circuit(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sat::encode_circuit_sat(n));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n.node_count()));
}
BENCHMARK(BM_EncodeCircuitSat)->Arg(200)->Arg(1000)->Arg(4000);

void BM_CdclCircuitSat(benchmark::State& state) {
  const net::Network n = test_circuit(static_cast<std::size_t>(state.range(0)));
  const sat::Cnf f = sat::encode_circuit_sat(n);
  for (auto _ : state) {
    const auto r = sat::solve_cnf(f);
    benchmark::DoNotOptimize(r.status);
  }
}
BENCHMARK(BM_CdclCircuitSat)->Arg(200)->Arg(1000)->Arg(4000);

void BM_AtpgSingleFault(benchmark::State& state) {
  const net::Network n = test_circuit(static_cast<std::size_t>(state.range(0)));
  const auto faults = fault::collapsed_fault_list(n);
  const fault::StuckAtFault f = faults[faults.size() / 2];
  for (auto _ : state) {
    fault::Pattern test;
    const auto outcome = fault::generate_test(n, f, {}, test);
    benchmark::DoNotOptimize(outcome.status);
  }
}
BENCHMARK(BM_AtpgSingleFault)->Arg(200)->Arg(1000);

void BM_FaultSimulate64(benchmark::State& state) {
  const net::Network n = test_circuit(static_cast<std::size_t>(state.range(0)));
  const auto faults = fault::collapsed_fault_list(n);
  Rng rng(7);
  std::vector<fault::Pattern> patterns;
  for (int i = 0; i < 64; ++i) {
    fault::Pattern p(n.inputs().size());
    for (auto&& b : p) b = rng.chance(0.5);
    patterns.push_back(std::move(p));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::fault_simulate(n, faults, patterns));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(faults.size()) * 64);
}
BENCHMARK(BM_FaultSimulate64)->Arg(200)->Arg(1000);

// The TEGUS commit step's shape: one new test against the whole
// collapsed fault list.
void BM_FaultSimulateCommit(benchmark::State& state) {
  const net::Network n = test_circuit(static_cast<std::size_t>(state.range(0)));
  const auto faults = fault::collapsed_fault_list(n);
  Rng rng(7);
  std::vector<fault::Pattern> patterns(1, fault::Pattern(n.inputs().size()));
  for (auto&& b : patterns[0]) b = rng.chance(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::fault_simulate(n, faults, patterns));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_FaultSimulateCommit)->Arg(1000)->Arg(4000);

void BM_MultilevelBisect(benchmark::State& state) {
  const net::Network n = test_circuit(static_cast<std::size_t>(state.range(0)));
  const net::Hypergraph hg = net::to_hypergraph(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(part::multilevel_bisect(hg));
  }
}
BENCHMARK(BM_MultilevelBisect)->Arg(500)->Arg(2000);

void BM_CutProfile(benchmark::State& state) {
  const net::Network n = test_circuit(static_cast<std::size_t>(state.range(0)));
  const net::Hypergraph hg = net::to_hypergraph(n);
  const auto order = core::identity_ordering(hg.num_vertices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cut_profile(hg, order));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(hg.num_edges()));
}
BENCHMARK(BM_CutProfile)->Arg(1000)->Arg(10000);

void BM_Mla(benchmark::State& state) {
  const net::Network n = test_circuit(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mla(n));
  }
}
BENCHMARK(BM_Mla)->Arg(300)->Arg(1200);

void BM_CacheSatTree(benchmark::State& state) {
  const net::Network n =
      gen::and_or_tree(static_cast<std::size_t>(state.range(0)), 2);
  const sat::Cnf f = sat::encode_circuit_sat(n);
  const auto h = core::tree_ordering(n);
  const std::vector<sat::Var> order(h.begin(), h.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sat::cache_sat(f, order));
  }
}
BENCHMARK(BM_CacheSatTree)->Arg(32)->Arg(128);

void BM_Decompose(benchmark::State& state) {
  const net::Network n = gen::array_multiplier(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decompose(n));
  }
}
BENCHMARK(BM_Decompose)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
