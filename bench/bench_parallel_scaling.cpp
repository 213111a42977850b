// Fault-parallel TEGUS scaling: wall-clock speedup at 1/2/4/8 workers.
//
// Runs run_atpg at AtpgOptions::threads 1, 2, 4 and 8 against a serial
// reference run on the largest member of the ISCAS85-like suite, in two
// configurations:
//   * figure-1 config (no random phase, no dropping): one independent SAT
//     instance per fault — the embarrassingly-parallel upper bound;
//   * dropping config (no random phase, simulation-based dropping on):
//     the speculative engine's hard shape, where the commit frontier and
//     fault dropping bound the achievable overlap.
// Every run is checked byte-identical to the serial one (same statuses,
// same test_index attribution, same test patterns) — run_atpg's
// determinism contract — before any speedup is reported; the --json
// report records the verdict as extra.identical, and the binary exits 1
// when any run diverged. Expect near-linear scaling in the figure-1
// config up to the physical core count and a visibly flatter curve beyond
// it; a machine with fewer cores than workers cannot speed up past its
// core count.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "fault/tegus.hpp"
#include "gen/suites.hpp"
#include "obs/report.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace {

using namespace cwatpg;

bool byte_identical(const fault::AtpgResult& a, const fault::AtpgResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const fault::FaultOutcome& x = a.outcomes[i];
    const fault::FaultOutcome& y = b.outcomes[i];
    if (!(x.fault == y.fault) || x.status != y.status ||
        x.engine != y.engine || x.attempts != y.attempts ||
        x.test_index != y.test_index || x.sat_vars != y.sat_vars ||
        x.sat_clauses != y.sat_clauses)
      return false;
  }
  return a.tests == b.tests && a.num_detected == b.num_detected &&
         a.num_untestable == b.num_untestable &&
         a.num_aborted == b.num_aborted &&
         a.num_unreachable == b.num_unreachable &&
         a.num_undetermined == b.num_undetermined &&
         a.num_escalated == b.num_escalated &&
         a.interrupted == b.interrupted;
}

/// Returns false when a requested --csv= artifact could not be written.
/// Clears `identical` when a threaded run diverges from the serial one.
bool run_config(const net::Network& circuit, const fault::AtpgOptions& base,
                const char* label, const std::string& csv,
                std::uint64_t seed, std::vector<obs::RunReport>& reports,
                bool& identical) {
  Timer serial_timer;
  const fault::AtpgResult serial = fault::run_atpg(circuit, base);
  const double serial_s = serial_timer.seconds();
  {
    obs::ReportOptions ropts;
    ropts.label = std::string(label) + "/serial";
    ropts.seed = seed;
    reports.push_back(obs::build_run_report(circuit, serial, ropts));
  }

  std::cout << label << ": " << serial.outcomes.size()
            << " collapsed faults, coverage "
            << cell(serial.fault_coverage() * 100, 2) << "%, serial "
            << cell(serial_s, 3) << " s\n";

  Table table({"threads", "seconds", "speedup", "efficiency", "dispatched",
               "wasted", "solves run", "identical"});
  std::vector<double> xs, ys;
  for (std::size_t threads : {1, 2, 4, 8}) {
    fault::AtpgOptions options = base;
    options.threads = threads;
    Timer timer;
    const fault::AtpgResult threaded = fault::run_atpg(circuit, options);
    const double secs = timer.seconds();
    const fault::ParallelStats& stats = threaded.parallel;
    std::size_t solves_run = 0;
    for (const fault::WorkerStats& w : stats.workers) solves_run += w.solved;
    const bool same = byte_identical(serial, threaded);
    identical = identical && same;
    const double speedup = secs > 0 ? serial_s / secs : 0.0;
    {
      obs::ReportOptions ropts;
      ropts.label =
          std::string(label) + "/threads=" + std::to_string(threads);
      ropts.engine = threads > 1 ? "parallel" : "serial";
      ropts.threads = threads;
      ropts.seed = seed;
      reports.push_back(obs::build_run_report(circuit, threaded, ropts));
    }
    table.add_row({cell(threads), cell(secs, 3), cell(speedup, 2),
                   cell(speedup / static_cast<double>(threads), 2),
                   cell(stats.dispatched), cell(stats.wasted),
                   cell(solves_run), same ? "yes" : "NO"});
    xs.push_back(static_cast<double>(threads));
    ys.push_back(speedup);
    if (!same)
      std::cout << "ERROR: the run at " << threads
                << " threads diverged from the serial classification\n";
  }
  table.print(std::cout);
  std::cout << "\n";
  return bench::write_csv(csv, "threads", "speedup", xs, ys);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::banner("Parallel fault-parallel TEGUS scaling",
                "beyond the paper — wall-clock speedup of the 1999 flow");

  gen::SuiteOptions suite_opts;
  suite_opts.scale = args.scale;
  suite_opts.seed = args.seed;
  const std::vector<net::Network> suite = gen::iscas85_like_suite(suite_opts);
  std::size_t largest = 0;
  for (std::size_t i = 1; i < suite.size(); ++i)
    if (suite[i].gate_count() > suite[largest].gate_count()) largest = i;
  const net::Network& circuit = suite[largest];

  std::cout << "circuit: " << circuit.name() << " ("
            << circuit.gate_count() << " gates, "
            << circuit.inputs().size() << " PIs)\n"
            << "hardware threads: " << ThreadPool::default_thread_count()
            << " (speedup saturates at the physical core count)\n\n";

  // Figure-1 configuration: every fault is one independent SAT instance.
  // Each found test is still verified: one single-fault simulation on the
  // commit thread, the same serial cost in both engines.
  std::vector<obs::RunReport> reports;
  bool identical = true;
  fault::AtpgOptions fig1;
  fig1.random_blocks = 0;
  fig1.drop_by_simulation = false;
  fig1.seed = args.seed;
  if (!run_config(circuit, fig1, "figure-1 config (independent instances)",
                  args.csv, args.seed, reports, identical))
    return 1;

  // Dropping configuration: no random phase, so the SAT phase carries the
  // whole fault list and simulation-based dropping (plus speculative
  // waste at the commit frontier) is exercised for real. With the random
  // phase on, 256 patterns detect nearly every fault of these circuits and
  // the SAT phase degenerates to a handful of instances.
  fault::AtpgOptions dropping;
  dropping.random_blocks = 0;
  dropping.seed = args.seed;
  if (!run_config(circuit, dropping, "dropping config (SAT phase + drops)",
                  {}, args.seed, reports, identical))
    return 1;
  obs::Json extra = obs::Json::object();
  extra["identical"] = identical;
  if (!bench::emit_report("bench_parallel_scaling", args, reports,
                          std::move(extra)))
    return 1;
  return identical ? 0 : 1;
}
