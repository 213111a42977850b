// Figure 1: "Results of TEGUS on ATPG-SAT instances".
//
// The paper ran TEGUS over all faults of the MCNC91 + ISCAS85 suites
// (~11,000 SAT instances, some over 15,000 variables) and scatter-plotted
// per-instance solve time against instance size: over 90% of instances
// solved in under 1/100th of a second, with the remainder growing roughly
// cubically. This harness regenerates that experiment on the synthetic
// suites: it prints the percentile table behind the ">90% under 10 ms"
// claim, a size-bucketed mean/max-time table (the scatter's shape), and
// the fit comparison on the slow tail.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "fault/tegus.hpp"
#include "gen/suites.hpp"
#include "obs/report.hpp"
#include "util/curvefit.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cwatpg;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::banner("Figure 1: SAT-based ATPG instance times",
                "paper Fig. 1 — time vs instance size, percentile claim");

  gen::SuiteOptions suite_opts;
  suite_opts.scale = args.scale;
  suite_opts.seed = args.seed;

  std::vector<double> vars, times_ms;
  std::size_t total_faults = 0;
  std::size_t sat_instances = 0, unsat_instances = 0;
  std::vector<obs::RunReport> reports;  ///< one RunReport per circuit

  // --threads=N (N > 1; 0 = auto) runs the fault-parallel engine; the
  // per-instance scatter (sat_vars, statuses) is byte-identical to the
  // serial engine, only the wall clock changes. Per-worker CDCL counters
  // aggregate back into the same per-outcome SolverStats either way.
  // --engine=incremental swaps in the shared-miter engine: same
  // classifications, but the scatter's instance "size" becomes the one
  // shared miter's and solve times reflect learnt-clause reuse — the
  // reuse-on-vs-off headline comparison.
  const bool incremental = args.engine == "incremental";
  auto run_suite = [&](const std::vector<net::Network>& suite,
                       const char* name) {
    for (const net::Network& n : suite) {
      fault::AtpgOptions opts;
      // Disable dropping: the paper's datapoints are one SAT instance per
      // fault.
      opts.random_blocks = 0;
      opts.drop_by_simulation = false;
      if (incremental) opts.engine = fault::AtpgEngine::kIncremental;
      opts.threads = args.threads;
      const fault::AtpgResult r = fault::run_atpg(n, opts);
      obs::ReportOptions ropts;
      ropts.label = name;
      ropts.seed = args.seed;
      ropts.engine = args.engine == "per-fault" ? "serial" : args.engine;
      if (args.threads > 1) {
        ropts.engine = incremental ? "parallel-incremental" : "parallel";
        ropts.threads = args.threads;
      }
      reports.push_back(obs::build_run_report(n, r, ropts));
      total_faults += r.outcomes.size();
      for (const auto& o : r.outcomes) {
        if (o.sat_vars == 0) continue;
        vars.push_back(static_cast<double>(o.sat_vars));
        times_ms.push_back(o.solve_seconds * 1e3);
        if (o.status == fault::FaultStatus::kDetected)
          ++sat_instances;
        else if (o.status == fault::FaultStatus::kUntestable)
          ++unsat_instances;
      }
    }
    std::cout << "suite " << name << " done: cumulative instances "
              << vars.size() << "\n";
  };

  run_suite(gen::mcnc_like_suite(suite_opts), "MCNC91-like");
  run_suite(gen::iscas85_like_suite(suite_opts), "ISCAS85-like");

  std::cout << "\nATPG-SAT instances: " << vars.size() << " (from "
            << total_faults << " collapsed faults; " << sat_instances
            << " SAT / " << unsat_instances << " UNSAT)\n";
  const Summary size_summary = summarize(vars);
  std::cout << "instance size (vars): median " << size_summary.median
            << ", p90 " << size_summary.p90 << ", max " << size_summary.max
            << "\n\n";

  // The paper's headline: fraction solved under 10 ms.
  Table pct({"threshold (ms)", "fraction solved below"});
  for (double t : {0.1, 1.0, 10.0, 100.0})
    pct.add_row({cell(t, 1), cell(fraction_below(times_ms, t), 4)});
  pct.print(std::cout);
  std::cout << "paper claim: >90% of instances below 10 ms\n\n";

  // Scatter shape: size-bucketed solve time.
  Table scatter({"mean vars", "mean ms", "max ms", "instances"});
  for (const Bucket& b : bucketize(vars, times_ms, 10))
    scatter.add_row({cell(b.x_mean, 0), cell(b.y_mean, 4), cell(b.y_max, 3),
                     cell(b.count)});
  scatter.print(std::cout);

  // Tail growth: fit time-vs-size on the slowest decile, compare against
  // cubic (the paper's Williams-Parker O(n^3) reference).
  std::vector<double> tail_x, tail_y;
  {
    std::vector<double> sorted(times_ms);
    std::sort(sorted.begin(), sorted.end());
    const double cutoff = percentile_sorted(sorted, 90.0);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (times_ms[i] >= cutoff && times_ms[i] > 0) {
        tail_x.push_back(vars[i]);
        tail_y.push_back(times_ms[i]);
      }
    }
  }
  if (!bench::write_csv(args.csv, "sat_vars", "solve_ms", vars, times_ms))
    return 1;
  obs::Json extra = obs::Json::object();
  extra["instances"] = static_cast<std::uint64_t>(vars.size());
  extra["sat_instances"] = static_cast<std::uint64_t>(sat_instances);
  extra["unsat_instances"] = static_cast<std::uint64_t>(unsat_instances);
  extra["fraction_below_10ms"] = fraction_below(times_ms, 10.0);
  if (!bench::emit_report("bench_fig1_tegus", args, reports,
                          std::move(extra)))
    return 1;
  std::cout << "\nslow-tail (top decile, " << tail_x.size()
            << " instances) growth fits:\n";
  if (tail_x.size() >= 8) {
    for (const Fit& f : fit_all(tail_x, tail_y))
      std::cout << "  " << to_string(f.model) << ": " << f.describe()
                << "  (RSS " << f.rss << ", R2 " << f.r_squared << ")\n";
    const Fit power = fit_curve(tail_x, tail_y, FitModel::kPower);
    std::cout << "  power-law exponent " << power.b
              << " (paper: tail roughly cubic, exponent <= ~3)\n";
  } else {
    std::cout << "  (tail too small at this scale)\n";
  }
  return 0;
}
