// Canonical JSON run reports.
//
// One schema — "cwatpg.run_report/1" — for every ATPG run this repo
// performs, whether it came from run_atpg at any thread count, an example,
// or a bench binary. A RunReport captures what the run was (circuit,
// engine, threads, seed), what it produced (fault classification counts,
// coverage, tests), and what it cost (aggregated SolverStats, StopReason
// histogram, escalation attempts, wall-clock, scheduling counters), plus
// an optional free-form MetricsSnapshot. Reports serialize to JSON with
// to_json(), parse back with from_json(), and aggregate with merge_runs()
// — which is how the bench harness builds one comparable artifact per
// binary (bench::emit_report) and how the perf trajectory in BENCH_*.json
// files is meant to be collected across PRs.
//
// Dependency note: this is the one obs component that knows about the
// fault layer (it summarizes AtpgResult), so it lives in its own library
// target `cwatpg_obs_report` above cwatpg_fault; the metrics/trace/json
// substrate below stays fault-free so the engines can link it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <span>
#include <vector>

#include "fault/tegus.hpp"
#include "netlist/network.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sat/solver.hpp"

namespace cwatpg::obs {

inline constexpr const char* kRunReportSchema = "cwatpg.run_report/1";

/// Per-worker entry of a parallel run (mirrors fault::WorkerStats).
struct WorkerReport {
  std::uint64_t solved = 0;
  double solve_seconds = 0.0;
  bool operator==(const WorkerReport&) const = default;
};

struct RunReport {
  // ---- identity ----
  std::string schema = kRunReportSchema;
  std::string label;    ///< free-form: config name, sweep point, suite…
  std::string circuit;  ///< Network::name()
  std::size_t gates = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::string engine = "serial";  ///< "serial" | "parallel"
  std::size_t threads = 1;
  std::uint64_t seed = 0;

  // ---- classification (mirrors AtpgResult) ----
  std::size_t faults = 0;  ///< collapsed fault list size
  std::map<std::string, std::uint64_t> status_counts;  ///< by FaultStatus
  std::map<std::string, std::uint64_t> engine_counts;  ///< by SolveEngine
  std::size_t num_tests = 0;
  std::size_t num_escalated = 0;
  bool interrupted = false;
  double fault_coverage = 0.0;
  double fault_efficiency = 0.0;

  // ---- effort ----
  sat::SolverStats solver;  ///< summed over outcomes (stop_reason unused)
  std::map<std::string, std::uint64_t> stop_reasons;  ///< by StopReason
  std::uint64_t attempts = 0;       ///< total solve attempts incl. ladder
  std::size_t sat_instances = 0;    ///< outcomes that built a SAT instance
  std::size_t max_sat_vars = 0;
  std::size_t max_sat_clauses = 0;
  double solve_seconds = 0.0;       ///< sum of per-fault solve wall-clock
  double wall_seconds = 0.0;        ///< whole-run wall-clock

  // ---- parallel scheduling (AtpgResult::parallel; zero when serial) ----
  std::uint64_t dispatched = 0;
  std::uint64_t committed = 0;
  std::uint64_t wasted = 0;
  std::uint64_t max_in_flight = 0;
  std::vector<WorkerReport> workers;

  // ---- optional extras ----
  MetricsSnapshot metrics;

  Json to_json() const;
  /// Inverse of to_json(). Unknown keys are ignored; a wrong or missing
  /// schema string throws std::runtime_error.
  static RunReport from_json(const Json& j);

  bool operator==(const RunReport&) const = default;
};

struct ReportOptions {
  std::string label;
  std::string engine = "serial";
  std::size_t threads = 1;
  std::uint64_t seed = 0;
  /// < 0 → take AtpgResult::wall_seconds (stamped by the engines).
  double wall_seconds = -1.0;
  const MetricsSnapshot* metrics = nullptr;  ///< optional
};

/// Summarizes one ATPG run. Every classification/effort field, and the
/// scheduling counters (AtpgResult::parallel), is derived from `result`
/// alone, so the report is exact whether or not the run was instrumented
/// with a registry or sink. A run with pool workers reports their count
/// as `threads` when options.threads is left at 1.
RunReport build_run_report(const net::Network& net,
                           const fault::AtpgResult& result,
                           const ReportOptions& options = {});

/// Aggregates many runs into one: counts, solver stats, stop reasons and
/// wall-clock add; coverage/efficiency are recomputed from the summed
/// counts; threads takes the max; circuit becomes "<N circuits>" when the
/// names differ. Empty input yields a default RunReport.
RunReport merge_runs(std::span<const RunReport> runs);

}  // namespace cwatpg::obs
