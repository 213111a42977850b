// Shared plumbing for the experiment harnesses (one binary per paper
// figure — see DESIGN.md §3). Each binary runs standalone with defaults
// sized to finish in tens of seconds; pass --scale=<f> to grow or shrink
// the workload (1.0 approximates paper-scale circuits) and --stride=<n>
// to subsample fault sites.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/threadpool.hpp"

namespace cwatpg::bench {

struct BenchArgs {
  double scale = 0.35;   ///< suite size multiplier
  std::size_t stride = 1;  ///< take every stride-th fault site
  std::uint64_t seed = 99;
  /// ATPG worker threads, AtpgOptions::threads: 1 (the default) = serial
  /// engine, N > 1 = an N-worker pool (classification is byte-identical
  /// either way). `--threads=0` means "auto" and is
  /// resolved to hardware concurrency by parse_args via the shared
  /// ThreadPool::resolve_thread_count helper, so benches never see 0.
  std::size_t threads = 1;
  /// Solve engine: "per-fault" (the default — fresh miter/CNF per fault,
  /// TEGUS as the paper analyzes) or "incremental" (one shared
  /// select-instrumented miter queried under assumptions with learnt-
  /// clause reuse). Benches that honor the knob map it onto
  /// fault::AtpgEngine; parse_args rejects anything else.
  std::string engine = "per-fault";
  std::string csv;   ///< when set, raw datapoints are also written here
  /// When set, the bench writes its canonical JSON report (schema
  /// "cwatpg.bench_report/1" wrapping per-run RunReports) here — see
  /// bench_report.hpp / emit_report().
  std::string json;
};

inline void print_usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0
      << " [--scale=F] [--stride=N] [--seed=S] [--threads=N]"
         " [--engine=per-fault|incremental] [--csv=FILE] [--json=FILE]\n"
         "  --threads: 1 = serial engine (default), 0 = auto (hardware"
         " concurrency), N > 1 = parallel engine\n"
         "  --engine: per-fault (default) re-encodes per fault;"
         " incremental queries one shared miter under assumptions\n";
}

/// Parses the shared bench flags. Unknown arguments are an error: usage
/// goes to stderr and the process exits with status 2, so a typo'd flag
/// (--sacle=2) can never silently run the default workload and pollute a
/// collected perf trajectory.
inline BenchArgs parse_args(int argc, char** argv,
                            BenchArgs defaults = {}) {
  BenchArgs args = defaults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      args.scale = std::atof(arg.c_str() + 8);
    } else if (arg.rfind("--stride=", 0) == 0) {
      args.stride = static_cast<std::size_t>(
          std::max(1L, std::atol(arg.c_str() + 9)));
    } else if (arg.rfind("--seed=", 0) == 0) {
      args.seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--threads=", 0) == 0) {
      args.threads = ThreadPool::resolve_thread_count(static_cast<std::size_t>(
          std::max(0L, std::atol(arg.c_str() + 10))));
    } else if (arg.rfind("--engine=", 0) == 0) {
      args.engine = arg.substr(9);
      if (args.engine != "per-fault" && args.engine != "incremental") {
        std::cerr << "unknown engine: " << args.engine << "\n";
        print_usage(std::cerr, argv[0]);
        std::exit(2);
      }
    } else if (arg.rfind("--csv=", 0) == 0) {
      args.csv = arg.substr(6);
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json = arg.substr(7);
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout, argv[0]);
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      print_usage(std::cerr, argv[0]);
      std::exit(2);
    }
  }
  return args;
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "reproduces: " << paper_ref << "\n\n";
}

/// Writes (x, y) scatter points as CSV for external plotting. Returns
/// false (after reporting to stderr) when the file cannot be opened or a
/// write fails, so benches can propagate a bad --csv= path as a nonzero
/// exit instead of reporting success with no artifact. An empty `path`
/// (flag not given) is trivially successful.
inline bool write_csv(const std::string& path, const std::string& x_name,
                      const std::string& y_name,
                      const std::vector<double>& xs,
                      const std::vector<double>& ys) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write csv: " << path << "\n";
    return false;
  }
  out << x_name << "," << y_name << "\n";
  for (std::size_t i = 0; i < xs.size() && i < ys.size(); ++i)
    out << xs[i] << "," << ys[i] << "\n";
  out.flush();
  if (!out) {
    std::cerr << "write failed for csv: " << path << "\n";
    return false;
  }
  std::cout << "(raw datapoints written to " << path << ")\n";
  return true;
}

}  // namespace cwatpg::bench
