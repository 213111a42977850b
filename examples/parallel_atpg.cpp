// Fault-parallel ATPG in a dozen lines.
//
//   $ ./parallel_atpg [threads]
//
// Runs the production TEGUS flow serially and then fault-parallel, with
// AtpgOptions::threads set (default: one worker per hardware thread),
// shows the wall-clock difference, and proves run_atpg's headline
// guarantee on the spot: the parallel result is byte-identical to the
// serial one — same per-fault classification, same test patterns — no
// matter how the workers interleave. Exits 1 if it is not.
#include <cstdlib>
#include <iostream>
#include <string>

#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "netlist/decompose.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace cwatpg;

  const std::size_t threads =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1]))
               : ThreadPool::default_thread_count();
  const net::Network circuit = net::decompose(gen::simple_alu(16));
  std::cout << "circuit: " << circuit.gate_count() << " gates, "
            << threads << " worker thread(s)\n\n";

  Timer serial_timer;
  const fault::AtpgResult serial = fault::run_atpg(circuit);
  const double serial_s = serial_timer.seconds();

  fault::AtpgOptions options;
  options.threads = threads;
  Timer parallel_timer;
  const fault::AtpgResult parallel = fault::run_atpg(circuit, options);
  const double parallel_s = parallel_timer.seconds();
  const fault::ParallelStats& stats = parallel.parallel;

  Table table({"engine", "seconds", "coverage %", "patterns"});
  table.add_row({"serial run_atpg", cell(serial_s, 3),
                 cell(serial.fault_coverage() * 100, 2),
                 cell(serial.tests.size())});
  table.add_row({"run_atpg, threads=" + std::to_string(threads),
                 cell(parallel_s, 3),
                 cell(parallel.fault_coverage() * 100, 2),
                 cell(parallel.tests.size())});
  table.print(std::cout);
  std::cout << "speedup: " << cell(serial_s / parallel_s, 2) << "x\n\n";

  // The determinism contract, checked end to end.
  bool identical = serial.tests == parallel.tests &&
                   serial.outcomes.size() == parallel.outcomes.size();
  for (std::size_t i = 0; identical && i < serial.outcomes.size(); ++i)
    identical = serial.outcomes[i].status == parallel.outcomes[i].status &&
                serial.outcomes[i].test_index ==
                    parallel.outcomes[i].test_index;
  std::cout << "byte-identical classification: "
            << (identical ? "yes" : "NO — engine bug") << "\n";

  Table workers({"worker", "solved", "solve s", "conflicts"});
  for (std::size_t w = 0; w < stats.workers.size(); ++w)
    workers.add_row({cell(w), cell(stats.workers[w].solved),
                     cell(stats.workers[w].solve_seconds, 3),
                     cell(stats.workers[w].solver.conflicts)});
  workers.print(std::cout);
  std::cout << "speculative solves: " << stats.dispatched << " dispatched, "
            << stats.committed << " committed, " << stats.wasted
            << " wasted\n";
  return identical ? 0 : 1;
}
