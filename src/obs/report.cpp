#include "obs/report.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/budget.hpp"

namespace cwatpg::obs {

namespace {

/// Every enum value appears in the report maps even at count zero, so the
/// schema is stable across runs and diffs never churn on missing keys.
constexpr fault::FaultStatus kAllStatuses[] = {
    fault::FaultStatus::kDetected,      fault::FaultStatus::kUntestable,
    fault::FaultStatus::kDroppedBySim,  fault::FaultStatus::kDroppedRandom,
    fault::FaultStatus::kAborted,       fault::FaultStatus::kUnreachable,
    fault::FaultStatus::kUndetermined,
};
constexpr fault::SolveEngine kAllEngines[] = {
    fault::SolveEngine::kNone,
    fault::SolveEngine::kSat,
    fault::SolveEngine::kSatRetry,
    fault::SolveEngine::kPodem,
    fault::SolveEngine::kIncremental,
};
constexpr StopReason kAllStopReasons[] = {
    StopReason::kNone,
    StopReason::kConflictLimit,
    StopReason::kDeadline,
    StopReason::kCancelled,
};

Json map_to_json(const std::map<std::string, std::uint64_t>& m) {
  Json j = Json::object();
  for (const auto& [k, v] : m) j[k] = v;
  return j;
}

std::map<std::string, std::uint64_t> map_from_json(const Json& j) {
  std::map<std::string, std::uint64_t> m;
  for (std::size_t i = 0; i < j.keys().size(); ++i)
    m[j.keys()[i]] = j.items()[i].as_u64();
  return m;
}

}  // namespace

RunReport build_run_report(const net::Network& net,
                           const fault::AtpgResult& result,
                           const ReportOptions& options) {
  RunReport report;
  report.label = options.label;
  report.circuit = net.name();
  report.gates = net.gate_count();
  report.inputs = net.inputs().size();
  report.outputs = net.outputs().size();
  report.engine = options.engine;
  report.threads = options.threads;
  report.seed = options.seed;

  report.faults = result.outcomes.size();
  for (const fault::FaultStatus s : kAllStatuses)
    report.status_counts[fault::to_string(s)] = 0;
  for (const fault::SolveEngine e : kAllEngines)
    report.engine_counts[fault::to_string(e)] = 0;
  for (const StopReason r : kAllStopReasons)
    report.stop_reasons[to_string(r)] = 0;

  for (const fault::FaultOutcome& o : result.outcomes) {
    ++report.status_counts[fault::to_string(o.status)];
    ++report.engine_counts[fault::to_string(o.engine)];
    ++report.stop_reasons[to_string(o.solver_stats.stop_reason)];
    report.solver += o.solver_stats;
    report.attempts += o.attempts;
    report.solve_seconds += o.solve_seconds;
    if (o.sat_vars > 0) {
      ++report.sat_instances;
      if (o.sat_vars > report.max_sat_vars) report.max_sat_vars = o.sat_vars;
      if (o.sat_clauses > report.max_sat_clauses)
        report.max_sat_clauses = o.sat_clauses;
    }
  }
  // The summed stop_reason is meaningless; the histogram carries it.
  report.solver.stop_reason = StopReason::kNone;

  report.num_tests = result.tests.size();
  report.num_escalated = result.num_escalated;
  report.interrupted = result.interrupted;
  report.fault_coverage = result.fault_coverage();
  report.fault_efficiency = result.fault_efficiency();
  report.wall_seconds =
      options.wall_seconds >= 0 ? options.wall_seconds : result.wall_seconds;

  const fault::ParallelStats& ps = result.parallel;
  report.dispatched = ps.dispatched;
  report.committed = ps.committed;
  report.wasted = ps.wasted;
  report.max_in_flight = ps.max_in_flight;
  report.workers.reserve(ps.workers.size());
  for (const fault::WorkerStats& w : ps.workers) {
    WorkerReport wr;
    wr.solved = w.solved;
    wr.solve_seconds = w.solve_seconds;
    report.workers.push_back(wr);
  }
  if (report.threads <= 1 && !ps.workers.empty())
    report.threads = ps.workers.size();
  if (options.metrics != nullptr) report.metrics = *options.metrics;
  return report;
}

Json RunReport::to_json() const {
  Json j = Json::object();
  j["schema"] = schema;
  if (!label.empty()) j["label"] = label;

  Json& c = j["circuit"] = Json::object();
  c["name"] = circuit;
  c["gates"] = static_cast<std::uint64_t>(gates);
  c["inputs"] = static_cast<std::uint64_t>(inputs);
  c["outputs"] = static_cast<std::uint64_t>(outputs);

  Json& e = j["engine"] = Json::object();
  e["name"] = engine;
  e["threads"] = static_cast<std::uint64_t>(threads);
  e["seed"] = seed;

  Json& f = j["faults"] = Json::object();
  f["total"] = static_cast<std::uint64_t>(faults);
  f["status"] = map_to_json(status_counts);
  f["solve_engine"] = map_to_json(engine_counts);
  f["tests"] = static_cast<std::uint64_t>(num_tests);
  f["escalated"] = static_cast<std::uint64_t>(num_escalated);
  f["interrupted"] = interrupted;
  f["coverage"] = fault_coverage;
  f["efficiency"] = fault_efficiency;

  Json& s = j["solver"] = Json::object();
  s["decisions"] = solver.decisions;
  s["propagations"] = solver.propagations;
  s["conflicts"] = solver.conflicts;
  s["learnt_clauses"] = solver.learnt_clauses;
  s["learnt_literals"] = solver.learnt_literals;
  s["restarts"] = solver.restarts;
  s["reused_implications"] = solver.reused_implications;

  j["stop_reasons"] = map_to_json(stop_reasons);
  j["attempts"] = attempts;

  Json& i = j["sat_instances"] = Json::object();
  i["count"] = static_cast<std::uint64_t>(sat_instances);
  i["max_vars"] = static_cast<std::uint64_t>(max_sat_vars);
  i["max_clauses"] = static_cast<std::uint64_t>(max_sat_clauses);

  j["solve_seconds"] = solve_seconds;
  j["wall_seconds"] = wall_seconds;

  if (engine == "parallel" || dispatched > 0 || !workers.empty()) {
    Json& p = j["parallel"] = Json::object();
    p["dispatched"] = dispatched;
    p["committed"] = committed;
    p["wasted"] = wasted;
    p["max_in_flight"] = max_in_flight;
    Json& w = p["workers"] = Json::array();
    for (const WorkerReport& wr : workers) {
      Json entry = Json::object();
      entry["solved"] = wr.solved;
      entry["solve_seconds"] = wr.solve_seconds;
      w.push_back(std::move(entry));
    }
  }

  if (!metrics.counters.empty() || !metrics.gauges.empty() ||
      !metrics.histograms.empty())
    j["metrics"] = metrics.to_json();
  return j;
}

RunReport RunReport::from_json(const Json& j) {
  const Json* schema = j.find("schema");
  if (schema == nullptr || schema->as_string() != kRunReportSchema)
    throw std::runtime_error(
        "RunReport::from_json: missing or unsupported schema (want " +
        std::string(kRunReportSchema) + ")");

  RunReport r;
  if (const Json* label = j.find("label")) r.label = label->as_string();

  const Json& c = j.at("circuit");
  r.circuit = c.at("name").as_string();
  r.gates = c.at("gates").as_u64();
  r.inputs = c.at("inputs").as_u64();
  r.outputs = c.at("outputs").as_u64();

  const Json& e = j.at("engine");
  r.engine = e.at("name").as_string();
  r.threads = e.at("threads").as_u64();
  r.seed = e.at("seed").as_u64();

  const Json& f = j.at("faults");
  r.faults = f.at("total").as_u64();
  r.status_counts = map_from_json(f.at("status"));
  r.engine_counts = map_from_json(f.at("solve_engine"));
  r.num_tests = f.at("tests").as_u64();
  r.num_escalated = f.at("escalated").as_u64();
  r.interrupted = f.at("interrupted").as_bool();
  r.fault_coverage = f.at("coverage").as_double();
  r.fault_efficiency = f.at("efficiency").as_double();

  const Json& s = j.at("solver");
  r.solver.decisions = s.at("decisions").as_u64();
  r.solver.propagations = s.at("propagations").as_u64();
  r.solver.conflicts = s.at("conflicts").as_u64();
  r.solver.learnt_clauses = s.at("learnt_clauses").as_u64();
  r.solver.learnt_literals = s.at("learnt_literals").as_u64();
  r.solver.restarts = s.at("restarts").as_u64();
  // Tolerant read: reports written before the incremental engine existed
  // have no reuse counter.
  if (const Json* reused = s.find("reused_implications"))
    r.solver.reused_implications = reused->as_u64();

  r.stop_reasons = map_from_json(j.at("stop_reasons"));
  r.attempts = j.at("attempts").as_u64();

  const Json& i = j.at("sat_instances");
  r.sat_instances = i.at("count").as_u64();
  r.max_sat_vars = i.at("max_vars").as_u64();
  r.max_sat_clauses = i.at("max_clauses").as_u64();

  r.solve_seconds = j.at("solve_seconds").as_double();
  r.wall_seconds = j.at("wall_seconds").as_double();

  if (const Json* p = j.find("parallel")) {
    r.dispatched = p->at("dispatched").as_u64();
    r.committed = p->at("committed").as_u64();
    r.wasted = p->at("wasted").as_u64();
    r.max_in_flight = p->at("max_in_flight").as_u64();
    for (const Json& entry : p->at("workers").items()) {
      WorkerReport wr;
      // Older reports also carry a per-worker "steals" count; it is
      // ignored.
      wr.solved = entry.at("solved").as_u64();
      wr.solve_seconds = entry.at("solve_seconds").as_double();
      r.workers.push_back(wr);
    }
  }
  if (const Json* m = j.find("metrics"))
    r.metrics = MetricsSnapshot::from_json(*m);
  return r;
}

RunReport merge_runs(std::span<const RunReport> runs) {
  RunReport total;
  if (runs.empty()) return total;
  total = runs[0];
  bool same_circuit = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const RunReport& r = runs[i];
    if (r.circuit != total.circuit) same_circuit = false;
    if (r.label != total.label) total.label.clear();
    total.gates += r.gates;
    total.inputs += r.inputs;
    total.outputs += r.outputs;
    total.threads = std::max(total.threads, r.threads);
    total.faults += r.faults;
    for (const auto& [k, v] : r.status_counts) total.status_counts[k] += v;
    for (const auto& [k, v] : r.engine_counts) total.engine_counts[k] += v;
    for (const auto& [k, v] : r.stop_reasons) total.stop_reasons[k] += v;
    total.num_tests += r.num_tests;
    total.num_escalated += r.num_escalated;
    total.interrupted = total.interrupted || r.interrupted;
    total.solver += r.solver;
    total.attempts += r.attempts;
    total.sat_instances += r.sat_instances;
    total.max_sat_vars = std::max(total.max_sat_vars, r.max_sat_vars);
    total.max_sat_clauses = std::max(total.max_sat_clauses, r.max_sat_clauses);
    total.solve_seconds += r.solve_seconds;
    total.wall_seconds += r.wall_seconds;
    total.dispatched += r.dispatched;
    total.committed += r.committed;
    total.wasted += r.wasted;
    total.max_in_flight = std::max(total.max_in_flight, r.max_in_flight);
    total.metrics += r.metrics;
  }
  total.solver.stop_reason = StopReason::kNone;
  total.workers.clear();  // per-worker detail does not merge across runs
  if (!same_circuit)
    total.circuit = std::string("<")
                        .append(std::to_string(runs.size()))
                        .append(" circuits>");
  // Recompute the ratios from the merged counts: detected statuses are
  // kDetected + both dropped kinds; efficiency adds untestable+unreachable.
  const double n = total.faults > 0 ? static_cast<double>(total.faults) : 1.0;
  const std::uint64_t detected = total.status_counts["detected"] +
                                 total.status_counts["dropped-sim"] +
                                 total.status_counts["dropped-random"];
  total.fault_coverage = static_cast<double>(detected) / n;
  total.fault_efficiency =
      static_cast<double>(detected + total.status_counts["untestable"] +
                          total.status_counts["unreachable"]) /
      n;
  return total;
}

}  // namespace cwatpg::obs
