// Observability: metrics, trace events, and the canonical run report.
//
//   $ ./observability
//
// The engines run dark by default — no counters, no events, no timing
// beyond the wall-clock stamp. This example switches all three layers on
// for one run of the TEGUS pipeline:
//
//   1. a MetricsRegistry collects named counters and histograms from the
//      solver, the fault simulator, and the pipeline phases,
//   2. a JsonlSink receives structured trace events (one JSON object per
//      line with a monotonic timestamp and a dense thread id),
//   3. build_run_report() folds the AtpgResult into the one JSON schema
//      ("cwatpg.run_report/1") every bench binary also emits via --json.
//
// The same hooks work at any AtpgOptions::threads: the registry merges
// across pool workers, and the run report carries the scheduling counters.
#include <iostream>
#include <sstream>
#include <string>

#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "netlist/decompose.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

int main() {
  using namespace cwatpg;

  const net::Network circuit = net::decompose(gen::array_multiplier(4));
  std::cout << "circuit: " << circuit.name() << " ("
            << circuit.gate_count() << " gates)\n\n";

  // --- instrument the run ----------------------------------------------
  obs::MetricsRegistry metrics;
  std::ostringstream trace_out;
  obs::JsonlSink trace(trace_out);

  fault::AtpgOptions options;
  options.metrics = &metrics;
  options.trace = &trace;
  const fault::AtpgResult result = fault::run_atpg(circuit, options);

  // --- 1. the metrics registry -----------------------------------------
  const obs::MetricsSnapshot snap = metrics.snapshot();
  std::cout << "counters:\n";
  for (const auto& [name, value] : snap.counters)
    std::cout << "  " << name << " = " << value << "\n";
  for (const auto& [name, hist] : snap.histograms) {
    std::cout << "histogram " << name << " (" << hist.total
              << " observations):\n";
    for (std::size_t b = 0; b < hist.counts.size(); ++b) {
      std::cout << "  <= ";
      if (b < hist.bounds.size())
        std::cout << hist.bounds[b];
      else
        std::cout << "+inf";
      std::cout << ": " << hist.counts[b] << "\n";
    }
  }

  // --- 2. the trace ----------------------------------------------------
  std::cout << "\ntrace: " << trace.events_written()
            << " events, first lines:\n";
  std::istringstream lines(trace_out.str());
  std::string line;
  for (int i = 0; i < 4 && std::getline(lines, line); ++i)
    std::cout << "  " << line << "\n";

  // --- 3. the canonical run report -------------------------------------
  // Built from the AtpgResult alone, so it is exact even for runs that
  // never attached a registry or sink; attaching the snapshot inlines the
  // free-form metrics under a "metrics" key.
  obs::ReportOptions ropts;
  ropts.label = "observability-example";
  ropts.metrics = &snap;
  const obs::RunReport report = obs::build_run_report(circuit, result, ropts);
  std::cout << "\nrun report (schema " << report.schema << "):\n"
            << report.to_json().dump(2) << "\n";
  return 0;
}
