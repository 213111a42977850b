// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --golden-dir DIR [--trace-out FILE] [--smoke] [--plant-wrong]
//   perfbench --make-golden DIR [--smoke]
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of a separate traced run with --trace 1.
// A human-readable copy of the metrics goes to stderr. See README.md.
#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Result;
using perfbench::RunConfig;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload prints all of these with --trace 0.
const std::vector<MetricSpec> kEndToEnd = {
    {"faults_per_s", "faults/s"}, {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},     {"ok_frac", "ratio"},
    {"test_patterns", "count"},   {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Every workload prints all of these with --trace 1; a layer the
/// workload's traffic never reaches reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"netlist.parse_s", "s"},
    {"fsim.calls", "count"},
    {"fsim.busy_s", "s"},
    {"fsim.node_evals", "count"},
    {"fsim.random_s", "s"},
    {"fsim.drop_s", "s"},
    {"fsim.drop_useful_frac", "ratio"},
    {"miter.builds", "count"},
    {"miter.build_s", "s"},
    {"cnf.vars", "count"},
    {"cnf.clauses", "count"},
    {"sat.solves", "count"},
    {"sat.busy_s", "s"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.decisions", "count"},
    {"sat.unsat_frac", "ratio"},
    {"sat.solve_ms_p50", "ms"},
    {"sat.solve_ms_p99", "ms"},
    {"tegus.phase.random_s", "s"},
    {"tegus.phase.sat_s", "s"},
    {"tegus.phase.escalate_s", "s"},
    {"tegus.self_s", "s"},
    {"tegus.dropped_random", "count"},
    {"tegus.dropped_sim", "count"},
    {"tegus.solve_frac", "ratio"},
    {"incremental.queries", "count"},
    {"incremental.reused_implications", "count"},
    {"engine.other_s", "s"},
    {"report.build_s", "s"},
    {"proto.frames", "count"},
    {"proto.bytes", "bytes"},
    {"client.codec_s", "s"},
    {"net.wait_s", "s"},
    {"net.bytes_in", "bytes"},
    {"net.bytes_out", "bytes"},
    {"server.busy_s", "s"},
    {"server.util", "ratio"},
    {"server.wait_ms_p50", "ms"},
    {"server.wait_ms_p99", "ms"},
    {"queue.max_depth", "count"},
    {"queue.rejected", "count"},
    {"registry.load_s", "s"},
    {"registry.bytes", "bytes"},
    {"cluster.shards", "count"},
    {"cluster.redispatched", "count"},
    {"cluster.coord_s", "s"},
    {"cluster.dispatch_s", "s"},
    {"cluster.merge_s", "s"},
    {"cluster.worker_busy_s", "s"},
    {"cluster.worker_util", "ratio"},
    {"cluster.solve_ratio", "ratio"},
    {"cluster.replicate_s", "s"},
    {"client.retries", "count"},
    {"client.overloaded", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_sum_frac", "ratio"},
    {"trace.harness_s", "s"},
};

/// The partition metrics plus trace.harness_s must add up to the traced
/// timelines' length within this share.
constexpr double kSelfSumTolerance = 0.01;

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --golden-dir DIR [--trace-out FILE] [--smoke] "
               "[--plant-wrong]\n"
               "       perfbench --make-golden DIR [--smoke]\n"
               "workloads: tegus-drop fig1-sat serve-mix cluster-shard\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker pipes and sockets must report a dead peer as EPIPE, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  RunConfig cfg;
  std::string make_golden_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload")
        cfg.workload = value();
      else if (arg == "--seed")
        cfg.seed = std::stoull(value());
      else if (arg == "--seconds")
        cfg.seconds = std::stod(value());
      else if (arg == "--trace")
        cfg.trace = std::stoi(value()) != 0;
      else if (arg == "--golden-dir")
        cfg.golden_dir = value();
      else if (arg == "--trace-out")
        cfg.trace_path = value();
      else if (arg == "--smoke")
        cfg.smoke = true;
      else if (arg == "--plant-wrong")
        cfg.plant_wrong = true;
      else if (arg == "--make-golden")
        make_golden_dir = value();
      else
        return usage();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return usage();
    }
  }

  try {
    if (!make_golden_dir.empty())
      return perfbench::make_golden(make_golden_dir, cfg.smoke);
    if (cfg.golden_dir.empty() || !(cfg.seconds > 0)) return usage();

    Result result;
    if (cfg.workload == "tegus-drop" || cfg.workload == "fig1-sat")
      perfbench::run_engine_workload(cfg, result);
    else if (cfg.workload == "serve-mix")
      perfbench::run_serve_mix(cfg, result);
    else if (cfg.workload == "cluster-shard")
      perfbench::run_cluster_shard(cfg, result);
    else
      return usage();

    for (const MetricSpec& m : cfg.trace ? kPerLayer : kEndToEnd) {
      if (result.has(m.name)) continue;
      if (!cfg.trace) {
        std::cerr << "perfbench: workload did not produce " << m.name << "\n";
        return 1;
      }
      result.set(m.name, 0.0, m.unit);
    }
    if (cfg.trace) {
      // The reported time metrics must account for the traced wall time:
      // time no metric reports, or reported twice, fails the run.
      double sum = result.value("trace.harness_s");
      for (const std::string& name : result.partition)
        sum += result.value(name);
      const double frac =
          result.timeline_s > 0 ? sum / result.timeline_s : 0.0;
      result.set("trace.self_sum_frac", frac, "ratio");
      if (frac < 1.0 - kSelfSumTolerance || frac > 1.0 + kSelfSumTolerance) {
        std::cerr << "perfbench: trace.harness_s and the partition metrics "
                  << "cover " << frac << " of the traced timelines\n";
        result.correct = false;
      }
    }
    std::cerr << cfg.workload << " seed " << cfg.seed
              << (cfg.trace ? " (traced)" : "") << ": correct="
              << (result.correct ? "yes" : "NO") << " attempted="
              << result.attempted << " failed=" << result.failed << "\n"
              << result.table();
    std::cout << result.json_line() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
