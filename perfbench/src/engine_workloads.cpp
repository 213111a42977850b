// tegus-drop and fig1-sat: in-process batch ATPG over fixed circuit sets,
// plus the pieces every workload shares (circuit sets, golden lookup,
// set-up timing) and the golden generator.
#include <algorithm>
#include <iostream>
#include <limits>

#include "fault/fault.hpp"
#include "fault/fsim.hpp"
#include "fault/podem.hpp"
#include "netlist/bench_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<Circuit> workload_circuits(const std::string& workload,
                                       bool smoke) {
  const double tiny = 0.1;
  if (workload == "tegus-drop" || workload == "cluster-shard")
    return suite_circuits("iscas85", smoke ? tiny : 1.0);
  if (workload == "fig1-sat") {
    std::vector<Circuit> all = suite_circuits("mcnc91", smoke ? tiny : 0.35);
    for (Circuit& c : suite_circuits("iscas85", smoke ? tiny : 0.35))
      all.push_back(std::move(c));
    return all;
  }
  if (workload == "serve-mix") {
    // The two largest members run 0.1-0.3 s jobs; with them in the mix
    // a pass would measure two circuits, not the service.
    std::vector<Circuit> all = suite_circuits("iscas85", smoke ? tiny : 0.5);
    std::erase_if(all, [](const Circuit& c) {
      return c.name == "s2670b" || c.name == "s7552";
    });
    return all;
  }
  throw std::invalid_argument("unknown workload " + workload);
}

std::vector<Loaded> load_with_golden(const RunConfig& cfg,
                                     const std::vector<Circuit>& circuits,
                                     std::string* drift) {
  std::map<std::string, GoldenSet> sets;
  std::vector<Loaded> out;
  for (const Circuit& c : circuits) {
    if (sets.count(c.golden_set) == 0)
      sets[c.golden_set] = load_golden(cfg.golden_dir, c.golden_set);
    Loaded l{net::read_bench_string(c.text, c.name), {}};
    const GoldenSet& g = sets[c.golden_set];
    const auto it = g.find(c.name);
    if (it == g.end()) {
      if (drift->empty()) *drift = c.name + ": no golden verdicts";
    } else if (it->second.hash != svc::content_hash(l.net)) {
      if (drift->empty())
        *drift = c.name + ": circuit differs from the one its golden "
                          "verdicts were made for";
    } else {
      l.golden = it->second.verdicts;
    }
    out.push_back(std::move(l));
  }
  return out;
}

double median_setup(const std::function<void()>& pass,
                    const std::function<void()>& reset,
                    std::vector<double>& times, int min_passes,
                    int max_passes, double budget_s) {
  const double start = now_s();
  while (static_cast<int>(times.size()) < max_passes &&
         (static_cast<int>(times.size()) < min_passes ||
          now_s() - start < budget_s)) {
    if (!times.empty()) reset();
    const double t0 = now_s();
    pass();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

bool another_pass(double start, int passes_done, double seconds) {
  if (passes_done == 0) return true;
  const double elapsed = now_s() - start;
  return elapsed + elapsed / passes_done / 2 < seconds;
}

fault::AtpgOptions tegus_options(std::uint64_t seed, std::size_t index) {
  fault::AtpgOptions opts;
  opts.seed = mix_seed(seed, index);
  return opts;
}

std::size_t random_pattern_count(const fault::AtpgOptions& opts) {
  return opts.random_blocks * 64;
}

void OkTally::add(const std::vector<bool>& ok, const std::string& error) {
  attempted += ok.size();
  failed += static_cast<std::uint64_t>(std::count(ok.begin(), ok.end(), false));
  if (first_error.empty()) first_error = error;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Receives the engine's atpg.phase.* spans (emitted when they close, with
/// their duration) and records them so that they contain exactly the
/// wrapper spans recorded while they were open.
class PhaseSink final : public obs::EventSink {
 public:
  explicit PhaseSink(Tracer& tracer) : tracer_(tracer) {}

  void begin_job(std::uint64_t id, double start) {
    id_ = id;
    floor_ = start;
    first_child_ = kInf;
  }
  void child_started(double t) { first_child_ = std::min(first_child_, t); }

  using obs::EventSink::event;
  void event(std::string_view name,
             std::span<const obs::Field> fields) override {
    if (name.rfind("atpg.phase.", 0) != 0) return;
    const double end = now_s();
    double dur = 0.0;
    for (const obs::Field& f : fields)
      if (f.key == "dur_ns") dur = static_cast<double>(f.u64) * 1e-9;
    const double start = std::max(floor_, std::min(end - dur, first_child_));
    tracer_.add(std::string(name.substr(5)), start, end, id_);
    floor_ = end;
    first_child_ = kInf;
  }

 private:
  Tracer& tracer_;
  std::uint64_t id_ = 0;
  double floor_ = 0.0;
  double first_child_ = kInf;
};

/// Exact per-pass counts of the traced engine layers.
struct EngineCounts {
  std::uint64_t fsim_calls = 0;
  std::uint64_t fsim_node_evals = 0;
  std::uint64_t drop_simulated = 0;
  std::uint64_t drop_hits = 0;
  std::uint64_t miter_builds = 0;
};

/// The serial per-fault solve strategy run_atpg plugs in, with the
/// generate_test call (miter build + encode + CDCL) timed from outside.
class TimedProvider final : public fault::detail::SolveProvider {
 public:
  TimedProvider(const fault::AtpgOptions& opts, Tracer& tracer,
                PhaseSink& sink, EngineCounts& counts, std::uint64_t id)
      : config_(fault::detail::per_fault_solver_config(opts)),
        tracer_(tracer),
        sink_(sink),
        counts_(counts),
        id_(id) {}

  void begin(const net::Network& netw,
             std::span<const fault::StuckAtFault> faults,
             std::span<const std::size_t>, const std::vector<bool>&) override {
    net_ = &netw;
    faults_ = faults;
  }

  fault::FaultOutcome solve(std::size_t fi, fault::Pattern& test) override {
    const double t0 = now_s();
    sink_.child_started(t0);
    fault::FaultOutcome o =
        fault::generate_test(*net_, faults_[fi], config_, test);
    const double t1 = now_s();
    tracer_.add("miter", t0, t1, id_);
    if (o.engine != fault::SolveEngine::kNone) {
      ++counts_.miter_builds;
      tracer_.add("sat", t1 - std::min(o.solve_seconds, t1 - t0), t1, id_);
    }
    return o;
  }

 private:
  sat::SolverConfig config_;
  Tracer& tracer_;
  PhaseSink& sink_;
  EngineCounts& counts_;
  std::uint64_t id_;
  const net::Network* net_ = nullptr;
  std::span<const fault::StuckAtFault> faults_;
};

/// One traced job: run_atpg's own composition (pipeline + serial provider
/// + fault_simulate) with every layer call wrapped in a span.
fault::AtpgResult traced_atpg(const net::Network& netw,
                              const fault::AtpgOptions& base, Tracer& tracer,
                              std::uint64_t id, EngineCounts& counts,
                              obs::MetricsRegistry& metrics) {
  PhaseSink sink(tracer);
  fault::AtpgOptions opts = base;
  opts.metrics = &metrics;
  opts.trace = &sink;
  TimedProvider provider(opts, tracer, sink, counts, id);
  const fault::detail::SimulateFn simulate =
      [&](std::span<const fault::StuckAtFault> faults,
          std::span<const fault::Pattern> patterns) {
        const double t0 = now_s();
        sink.child_started(t0);
        fault::FsimStats stats;
        std::vector<bool> hit =
            fault::fault_simulate(netw, faults, patterns, &stats);
        const double t1 = now_s();
        const bool random_phase = patterns.size() > 1;
        tracer.add(random_phase ? "fsim.random" : "fsim.drop", t0, t1, id);
        ++counts.fsim_calls;
        counts.fsim_node_evals += stats.node_evals;
        if (!random_phase) {
          counts.drop_simulated += faults.size();
          counts.drop_hits += static_cast<std::uint64_t>(
              std::count(hit.begin(), hit.end(), true));
        }
        return hit;
      };
  const double t0 = now_s();
  sink.begin_job(id, t0);
  fault::AtpgResult r =
      fault::detail::run_atpg_pipeline(netw, opts, provider, simulate);
  tracer.add("job", t0, now_s(), id);
  return r;
}

std::uint64_t counter(const obs::MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

}  // namespace

void run_engine_workload(const RunConfig& cfg, Result& out) {
  const bool fig1 = cfg.workload == "fig1-sat";
  const std::vector<Circuit> circuits = workload_circuits(cfg.workload,
                                                          cfg.smoke);
  std::string drift;
  const std::vector<Loaded> loaded = load_with_golden(cfg, circuits, &drift);
  if (!drift.empty()) {
    std::cerr << "golden verdicts unusable: " << drift << "\n";
    out.correct = false;
  }

  // Set-up: what a user's flow does before the first ATPG call — parse
  // every netlist and collapse its fault list.
  std::vector<double> parse_times, setup_times;
  std::vector<net::Network> nets;
  const double setup_s = median_setup(
      [&] {
        nets.clear();
        double parse = 0.0;
        for (const Circuit& c : circuits) {
          const double t0 = now_s();
          nets.push_back(net::read_bench_string(c.text, c.name));
          parse += now_s() - t0;
          const std::vector<fault::StuckAtFault> faults =
              fault::collapsed_fault_list(nets.back());
          if (faults.empty()) throw std::logic_error("empty fault list");
        }
        parse_times.push_back(parse);
      },
      [] {}, setup_times, 5, 200, cfg.smoke ? 0.2 : 1.0);

  std::vector<fault::AtpgOptions> opts;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    fault::AtpgOptions o = tegus_options(cfg.seed, i);
    if (fig1) {
      // The paper's Figure 1 instrument: one SAT instance per fault.
      o.random_blocks = 0;
      o.drop_by_simulation = false;
    }
    opts.push_back(o);
  }

  // Timed phase: whole passes over the job set until the time is up. Every
  // pass runs the same jobs, so later passes must reproduce pass 0 exactly.
  const double phase_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<fault::AtpgResult> reference(nets.size());
  std::vector<fault::AtpgResult> divergent;  // results unlike pass 0
  std::vector<std::size_t> divergent_circuit;
  std::vector<std::uint64_t> repeats(nets.size(), 0);
  double busy = 0.0;
  std::uint64_t faults_done = 0;
  int passes = 0;
  std::vector<double> pass_ms;  // latency of one complete job set
  for (const double start = now_s(); another_pass(start, passes, phase_s);
       ++passes) {
    pass_ms.push_back(0.0);
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const double t0 = now_s();
      fault::AtpgResult r = fault::run_atpg(nets[i], opts[i]);
      const double dt = now_s() - t0;
      busy += dt;
      pass_ms.back() += dt * 1e3;
      faults_done += r.outcomes.size();
      if (passes == 0) {
        reference[i] = std::move(r);
      } else if (same_result(r, reference[i])) {
        ++repeats[i];
      } else {
        divergent.push_back(std::move(r));
        divergent_circuit.push_back(i);
      }
    }
  }
  const double peak_rss = peak_rss_mb();
  std::size_t test_patterns = 0;
  for (const fault::AtpgResult& r : reference) test_patterns += r.tests.size();

  // Traced phase (trace mode only), on the same jobs. The traced
  // composition must reproduce run_atpg exactly; a job that does not fails
  // every one of its faults.
  Tracer tracer;
  EngineCounts counts;
  obs::MetricsSnapshot engine_metrics;
  std::vector<double> solve_ms;
  double traced_busy = 0.0;
  std::uint64_t traced_faults = 0, traced_mismatched = 0;
  std::uint64_t untestable = 0, dropped_random = 0, dropped_sim = 0,
                cnf_vars = 0, cnf_clauses = 0, faults_pass = 0;
  int traced_passes = 0;
  double traced_wall = 0.0;
  if (cfg.trace) {
    std::uint64_t id = 0;
    const double start = now_s();
    for (; another_pass(start, traced_passes, phase_s); ++traced_passes) {
      for (std::size_t i = 0; i < nets.size(); ++i) {
        EngineCounts job_counts;
        obs::MetricsRegistry metrics;
        const double t0 = now_s();
        const fault::AtpgResult r = traced_atpg(nets[i], opts[i], tracer,
                                                ++id, job_counts, metrics);
        traced_busy += now_s() - t0;
        traced_faults += r.outcomes.size();
        if (same_result(r, reference[i])) {
          ++repeats[i];
        } else {
          traced_mismatched += r.outcomes.size();
        }
        if (traced_passes > 0) continue;
        counts.fsim_calls += job_counts.fsim_calls;
        counts.fsim_node_evals += job_counts.fsim_node_evals;
        counts.drop_simulated += job_counts.drop_simulated;
        counts.drop_hits += job_counts.drop_hits;
        counts.miter_builds += job_counts.miter_builds;
        engine_metrics += metrics.snapshot();
        faults_pass += r.outcomes.size();
        for (const fault::FaultOutcome& o : r.outcomes) {
          if (o.status == fault::FaultStatus::kDroppedRandom) ++dropped_random;
          if (o.status == fault::FaultStatus::kDroppedBySim) ++dropped_sim;
          if (o.engine == fault::SolveEngine::kNone) continue;
          if (o.status == fault::FaultStatus::kUntestable) ++untestable;
          cnf_vars += o.sat_vars;
          cnf_clauses += o.sat_clauses;
          solve_ms.push_back(o.solve_seconds * 1e3);
        }
      }
    }
    traced_wall = now_s() - start;
    tracer.add("harness", start, start + traced_wall, 0);
  }

  // Correctness, outside every timed phase: pass 0 against the golden
  // verdicts and independent re-simulation; a repeat that reproduced pass 0
  // inherits its verdict; anything else is checked on its own.
  OkTally tally;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (cfg.plant_wrong && i == 0) plant_wrong_verdict(reference[0]);
    std::string err;
    const std::vector<bool> ok =
        check_result(nets[i], loaded[i].golden, reference[i],
                     random_pattern_count(opts[i]), &err);
    for (std::uint64_t k = 0; k <= repeats[i]; ++k) tally.add(ok, err);
  }
  for (std::size_t k = 0; k < divergent.size(); ++k) {
    const std::size_t i = divergent_circuit[k];
    std::string err;
    tally.add(check_result(nets[i], loaded[i].golden, divergent[k],
                           random_pattern_count(opts[i]), &err),
              err);
  }
  if (traced_mismatched != 0) {
    tally.attempted += traced_mismatched;
    tally.failed += traced_mismatched;
    if (tally.first_error.empty())
      tally.first_error = "traced outcomes differ from run_atpg";
  }
  if (!tally.first_error.empty())
    std::cerr << "check failed: " << tally.first_error << "\n";
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct = out.correct && tally.failed == 0;

  const double fps = static_cast<double>(faults_done) / busy;
  std::cerr << cfg.workload << ": " << passes << " passes (latency samples), "
            << faults_done << " faults in " << busy << " s; pass ms:";
  for (const double ms : pass_ms) std::cerr << " " << ms;
  std::cerr << "\n";
  if (!cfg.trace) {
    out.set("faults_per_s", fps, "faults/s");
    out.set("latency_p50_ms", quantile(pass_ms, 0.5), "ms");
    out.set("latency_p99_ms", quantile(pass_ms, 0.99), "ms");
    out.set("ok_frac", tally.ok_frac(), "ratio");
    out.set("test_patterns", static_cast<double>(test_patterns), "count");
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss, "MiB");
    return;
  }

  const std::map<std::string, double> self = tracer.self_times();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto total_of = [&](const std::string& name) {
    double s = 0.0;
    for (const Tracer::Span& sp : tracer.spans())
      if (sp.name == name) s += sp.end - sp.start;
    return s;
  };
  const double per_pass = 1.0 / traced_passes;
  const std::uint64_t solves = counter(engine_metrics, "atpg.sat.solves");
  const double traced_fps = static_cast<double>(traced_faults) / traced_busy;

  out.set("netlist.parse_s", median(parse_times), "s");
  out.set("fsim.calls", static_cast<double>(counts.fsim_calls), "count");
  out.set("fsim.busy_s",
          (self_of("fsim.random") + self_of("fsim.drop")) * per_pass, "s");
  out.set("fsim.node_evals", static_cast<double>(counts.fsim_node_evals),
          "count");
  out.set("fsim.random_s", self_of("fsim.random") * per_pass, "s");
  out.set("fsim.drop_s", self_of("fsim.drop") * per_pass, "s");
  out.set("fsim.drop_useful_frac",
          counts.drop_simulated == 0
              ? 0.0
              : static_cast<double>(counts.drop_hits) /
                    static_cast<double>(counts.drop_simulated),
          "ratio");
  out.set("miter.builds", static_cast<double>(counts.miter_builds), "count");
  out.set("miter.build_s", self_of("miter") * per_pass, "s");
  out.set("cnf.vars", static_cast<double>(cnf_vars), "count");
  out.set("cnf.clauses", static_cast<double>(cnf_clauses), "count");
  out.set("sat.solves", static_cast<double>(solves), "count");
  out.set("sat.busy_s", self_of("sat") * per_pass, "s");
  out.set("sat.conflicts",
          static_cast<double>(counter(engine_metrics, "sat.conflicts")),
          "count");
  out.set("sat.propagations",
          static_cast<double>(counter(engine_metrics, "sat.propagations")),
          "count");
  out.set("sat.decisions",
          static_cast<double>(counter(engine_metrics, "sat.decisions")),
          "count");
  out.set("sat.unsat_frac",
          solves == 0 ? 0.0
                      : static_cast<double>(untestable) /
                            static_cast<double>(solves),
          "ratio");
  out.set("sat.solve_ms_p50", quantile(solve_ms, 0.5), "ms");
  out.set("sat.solve_ms_p99", quantile(solve_ms, 0.99), "ms");
  out.set("tegus.phase.random_s", total_of("phase.random") * per_pass, "s");
  out.set("tegus.phase.sat_s", total_of("phase.sat") * per_pass, "s");
  out.set("tegus.phase.escalate_s", total_of("phase.escalate") * per_pass,
          "s");
  out.set("tegus.self_s",
          (self_of("job") + self_of("phase.random") + self_of("phase.sat") +
           self_of("phase.escalate")) *
              per_pass,
          "s");
  out.set("tegus.dropped_random", static_cast<double>(dropped_random),
          "count");
  out.set("tegus.dropped_sim", static_cast<double>(dropped_sim), "count");
  out.set("tegus.solve_frac",
          faults_pass == 0 ? 0.0
                           : static_cast<double>(solves) /
                                 static_cast<double>(faults_pass),
          "ratio");
  out.set("trace.overhead_frac", 1.0 - traced_fps / fps, "ratio");
  out.set("trace.harness_s", self_of("harness") * per_pass, "s");
  out.partition = {"fsim.random_s", "fsim.drop_s", "miter.build_s",
                   "sat.busy_s", "tegus.self_s"};
  out.timeline_s = traced_wall * per_pass;
  if (!cfg.trace_path.empty()) tracer.write_jsonl(cfg.trace_path);
}

int make_golden(const std::string& dir, bool smoke) {
  struct SetSpec {
    const char* suite;
    double scale;
  };
  const std::vector<SetSpec> specs =
      smoke ? std::vector<SetSpec>{{"iscas85", 0.1}, {"mcnc91", 0.1}}
            : std::vector<SetSpec>{{"iscas85", 1.0},
                                   {"iscas85", 0.5},
                                   {"iscas85", 0.35},
                                   {"mcnc91", 0.35}};
  fault::PodemOptions podem_opts;
  podem_opts.max_backtracks = 2000;
  for (const SetSpec& spec : specs) {
    GoldenSet golden;
    std::uint64_t faults = 0, podem_decided = 0;
    for (const Circuit& c : suite_circuits(spec.suite, spec.scale)) {
      const net::Network netw = net::read_bench_string(c.text, c.name);
      GoldenEntry e;
      e.hash = svc::content_hash(netw);
      for (const fault::StuckAtFault& f : fault::collapsed_fault_list(netw)) {
        fault::Pattern test;
        const fault::FaultOutcome o =
            fault::generate_test(netw, f, sat::SolverConfig{}, test);
        const char v = verdict_class(o.status);
        if (v == '?' ||
            (v == 'D' && !detects_independently(netw, f, test))) {
          std::cerr << c.name << " " << fault::to_string(netw, f)
                    << ": CDCL gave no checkable verdict\n";
          return 1;
        }
        const fault::PodemResult p = fault::podem(netw, f, podem_opts);
        if (p.status != fault::PodemStatus::kAborted) {
          ++podem_decided;
          const bool podem_detects = p.status == fault::PodemStatus::kDetected;
          if (podem_detects != (v == 'D') ||
              (podem_detects && !detects_independently(netw, f, p.test))) {
            std::cerr << c.name << " " << fault::to_string(netw, f)
                      << ": PODEM disagrees with CDCL\n";
            return 1;
          }
        }
        e.verdicts.push_back(v);
        ++faults;
      }
      golden[c.name] = std::move(e);
    }
    const std::string set = golden_set_name(spec.suite, spec.scale);
    write_golden(dir + "/" + set + ".txt", golden);
    std::cerr << set << ": " << golden.size() << " circuits, " << faults
              << " faults, PODEM decided " << podem_decided << "\n";
  }
  return 0;
}

}  // namespace perfbench
