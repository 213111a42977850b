// Abort profile under budgets: what the engine gives up on, and what the
// escalation ladder buys back.
//
// Two experiments on array multipliers — the family whose XOR-heavy carry
// structure produces the hardest ATPG-SAT instances in this repo (the
// outliers of the paper's Figure 1 scatter):
//
//   1. Conflict-cap sweep. Run ATPG with per-solve conflict caps from 1 to
//      256, first with the escalation ladder disabled (what a bare
//      budgeted solver aborts), then with the ladder + PODEM fallback on
//      (what survives after geometric retries and the structural engine).
//      The gap between the two "aborted" columns is the ladder's yield.
//
//   2. Deadline sweep. Run the whole flow under wall-clock deadlines from
//      50 ms up on a harder multiplier and report how much of the fault
//      list is classified before the budget fires — the anytime-behaviour
//      curve of the engine (processed faults and coverage vs. deadline),
//      with `interrupted` confirming the run was cut, not finished.
//
// --threads=N (N > 1; 0 = auto) runs the deadline sweep on the parallel
// engine instead of the serial one (same budget plumbing, same
// partial-result contract).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "netlist/decompose.hpp"
#include "obs/report.hpp"
#include "util/budget.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace cwatpg;

/// Runs the configured engine and appends a labelled RunReport.
fault::AtpgResult run(const net::Network& circuit,
                      const fault::AtpgOptions& base, std::size_t threads,
                      std::uint64_t seed, const std::string& label,
                      std::vector<obs::RunReport>& reports) {
  fault::AtpgOptions options = base;
  options.threads = threads;
  fault::AtpgResult result = fault::run_atpg(circuit, options);
  obs::ReportOptions ropts;
  ropts.label = label;
  ropts.seed = seed;
  if (threads > 1) {
    ropts.engine = "parallel";
    ropts.threads = threads;
  }
  reports.push_back(obs::build_run_report(circuit, result, ropts));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::banner("Abort profile: conflict caps, deadlines, escalation",
                "beyond the paper — graceful degradation on the Figure-1 "
                "outliers");

  // scale 0.35 (default) -> a 5-bit multiplier for the cap sweep; the
  // deadline sweep uses a wider one so a sub-second deadline really bites.
  const int width = std::clamp(
      static_cast<int>(std::lround(args.scale * 14.0)), 3, 8);
  const net::Network circuit = net::decompose(gen::array_multiplier(width));
  std::cout << "cap sweep circuit: " << circuit.name() << " ("
            << circuit.gate_count() << " gates)\n\n";

  // ---- 1. conflict-cap sweep: bare caps vs. the escalation ladder ----
  std::vector<obs::RunReport> reports;
  Table caps({"max_conflicts", "aborted", "coverage%", "s", "aborted+ladder",
              "escalated", "coverage%+ladder", "s+ladder"});
  std::vector<double> xs, ys;
  for (std::uint64_t cap : {1ull, 4ull, 16ull, 64ull, 256ull}) {
    fault::AtpgOptions bare;
    bare.random_blocks = 0;  // make the SAT phase carry every fault
    bare.solver.max_conflicts = cap;
    bare.escalation_rounds = 0;
    bare.podem_fallback = false;
    bare.seed = args.seed;
    Timer bare_timer;
    const fault::AtpgResult plain =
        run(circuit, bare, args.threads, args.seed,
            "cap=" + std::to_string(cap) + "/bare", reports);
    const double bare_s = bare_timer.seconds();

    fault::AtpgOptions ladder = bare;
    ladder.escalation_rounds = 3;
    ladder.podem_fallback = true;
    Timer ladder_timer;
    const fault::AtpgResult rescued =
        run(circuit, ladder, args.threads, args.seed,
            "cap=" + std::to_string(cap) + "/ladder", reports);
    const double ladder_s = ladder_timer.seconds();

    caps.add_row({cell(cap), cell(plain.num_aborted),
                  cell(plain.fault_coverage() * 100, 2), cell(bare_s, 3),
                  cell(rescued.num_aborted), cell(rescued.num_escalated),
                  cell(rescued.fault_coverage() * 100, 2),
                  cell(ladder_s, 3)});
    xs.push_back(static_cast<double>(cap));
    ys.push_back(rescued.fault_coverage() * 100);
  }
  caps.print(std::cout);
  std::cout << "\n";
  if (!bench::write_csv(args.csv, "max_conflicts", "ladder_coverage_pct", xs,
                        ys))
    return 1;

  // ---- 2. deadline sweep: the anytime curve --------------------------
  const net::Network hard =
      net::decompose(gen::array_multiplier(std::min(width + 3, 8)));
  std::cout << "deadline sweep circuit: " << hard.name() << " ("
            << hard.gate_count() << " gates), engine: "
            << (args.threads <= 1
                    ? std::string("serial")
                    : std::to_string(args.threads) + " threads")
            << "\n\n";

  Table deadlines({"deadline_s", "processed", "undetermined", "coverage%",
                   "interrupted", "wall_s"});
  for (double deadline : {0.05, 0.1, 0.2, 0.5, 1.0}) {
    Budget budget;
    budget.set_deadline_after(deadline);
    fault::AtpgOptions opts;
    opts.budget = &budget;
    opts.seed = args.seed;
    // No random phase: the SAT pass carries all faults, so the deadline
    // truncates the fault list instead of just the last hard solve and
    // the anytime curve (processed vs deadline) is actually visible.
    opts.random_blocks = 0;
    Timer timer;
    const fault::AtpgResult r =
        run(hard, opts, args.threads, args.seed,
            "deadline=" + std::to_string(deadline), reports);
    const double wall = timer.seconds();
    deadlines.add_row(
        {cell(deadline, 2), cell(r.outcomes.size() - r.num_undetermined),
         cell(r.num_undetermined), cell(r.fault_coverage() * 100, 2),
         r.interrupted ? "yes" : "no", cell(wall, 3)});
  }
  deadlines.print(std::cout);
  std::cout << "\nreading: the processed count grows with the deadline while"
               "\nevery partial result stays internally consistent; a row"
               "\nwith interrupted=no finished before its deadline.\n";
  if (!bench::emit_report("bench_abort_profile", args, reports)) return 1;
  return 0;
}
