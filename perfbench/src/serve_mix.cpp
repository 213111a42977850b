// serve-mix: a closed-loop request mix against the TCP serving stack.
//
// One process hosts an svc::Server (2 pool workers) behind a
// netio::NetServer on loopback and plays the client on two connections: a
// control connection (load_circuit, shutdown) and a job connection, an
// svc::Client that sends its next request as soon as the previous answer
// is in. The requests are fixed templates, per circuit one per-fault
// run_atpg, one engine=incremental run_atpg and one fsim batch, with seeds
// and patterns drawn from --seed. A pass sends every template
// kRoundsPerPass times; every pass does the same work, and its wall time
// is one latency sample.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "fault/fault.hpp"
#include "net/net_server.hpp"
#include "net/socket.hpp"
#include "netlist/bench_io.hpp"
#include "obs/report.hpp"
#include "svc/client.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPoolWorkers = 2;
constexpr std::size_t kPatternsPerFsim = 64;
/// A round of the templates takes about 0.2 s on a 4-vCPU VM. A pass of
/// one round let a single scheduling hiccup of the host double it; with
/// eight, the median p99 of two ten-run sets still moved by a quarter.
constexpr std::size_t kRoundsPerPass = 16;

enum class Kind { kPerFault, kIncremental, kFsim };

std::uint64_t fsim_digest(std::uint64_t faults, std::uint64_t detected,
                          std::uint64_t patterns) {
  return fnv(fnv(fnv(kFnvBasis, std::to_string(faults)),
                 std::to_string(detected)),
             std::to_string(patterns));
}

/// One distinct request of the mix, with its in-process reference answer.
struct Template {
  std::size_t circuit = 0;
  Kind kind = Kind::kPerFault;
  std::uint64_t seed = 0;
  std::vector<fault::Pattern> patterns;  ///< fsim only
  obs::Json params;                      ///< built once the keys are known
  std::uint64_t digest = 0;              ///< of the reference answer
  bool checked = true;  ///< the reference passed the golden check

  const char* rpc() const { return kind == Kind::kFsim ? "fsim" : "run_atpg"; }
};

/// Digest of a served answer; equal to the template's reference digest
/// exactly when the served result equals the in-process one.
std::uint64_t served_digest(const obs::Json& result, Kind kind) {
  if (kind != Kind::kFsim) return answer_digest(result);
  return fsim_digest(result.at("faults").as_u64(),
                     result.at("detected").as_u64(),
                     result.at("patterns").as_u64());
}

/// What the job connection carried.
struct JobTap {
  bool counting = false;    ///< count frames and bytes (first traced round)
  double send_start = 0.0;  ///< the newest request write
  double send_end = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

/// The daemon and the client's connections.
struct Daemon {
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<netio::NetServer> net;
  std::thread loop;
  std::unique_ptr<netio::SocketTransport> control_transport;
  std::unique_ptr<svc::Client> control;
  JobTap tap;
  std::unique_ptr<TapTransport> job_transport;
  std::unique_ptr<svc::Client> jobs;
  std::vector<std::string> keys;
  double load_s = 0.0;

  void boot(const std::vector<Circuit>& circuits) {
    svc::ServerOptions sopts;
    sopts.threads = kPoolWorkers;
    server = std::make_unique<svc::Server>(sopts);
    net = std::make_unique<netio::NetServer>(*server);
    loop = std::thread([this] { net->run(); });
    control_transport = std::make_unique<netio::SocketTransport>(
        netio::tcp_connect("127.0.0.1", net->port()));
    control = std::make_unique<svc::Client>(*control_transport);
    const double t0 = now_s();
    keys.clear();
    for (const Circuit& c : circuits) {
      obs::Json params = obs::Json::object();
      params["name"] = c.name;
      params["text"] = c.text;
      const obs::Json resp = control->call("load_circuit", std::move(params));
      if (!resp.at("ok").as_bool())
        throw std::runtime_error("load_circuit failed: " + resp.dump());
      keys.push_back(resp.at("result").at("circuit").at("key").as_string());
    }
    load_s = now_s() - t0;
    job_transport = std::make_unique<TapTransport>(
        std::make_unique<netio::SocketTransport>(
            netio::tcp_connect("127.0.0.1", net->port())),
        [this](const obs::Json& frame, bool written, double start,
               double end) {
          if (written) {
            tap.send_start = start;
            tap.send_end = end;
          }
          if (tap.counting) {
            ++tap.frames;
            tap.bytes += frame_bytes(frame);
          }
        });
    jobs = std::make_unique<svc::Client>(*job_transport);
  }

  void shutdown() {
    if (!loop.joinable()) return;
    try {
      control->call("shutdown");
    } catch (const std::exception&) {
      net->stop();
    }
    loop.join();
    jobs.reset();
    job_transport.reset();
    control.reset();
    control_transport.reset();
    net.reset();
    server.reset();
  }

  ~Daemon() {
    if (loop.joinable()) {
      net->stop();
      loop.join();
    }
  }
};

struct Record {
  std::size_t tmpl = 0;
  std::size_t pass = 0;
  /// The first round of the first pass: one answer per template, which the
  /// exact counts cover.
  bool first_round = false;
  double start = 0.0;  ///< submit
  double send_start = 0.0, send_end = 0.0;  ///< the request write
  double end = 0.0;    ///< answer in hand
  bool answered = false;  ///< an ok response arrived
  std::uint64_t digest = 0;  ///< of the served answer
  bool ok = false;  ///< answered, and equal to the checked reference
  bool overloaded = false;
  double server_wall = 0.0;  ///< response wall_seconds
  double engine_wall = 0.0;  ///< run_report.wall_seconds (run_atpg)
  double solve_s = 0.0;      ///< run_report.solve_seconds (run_atpg)
  std::uint64_t faults = 0;  ///< faults the request classified
  std::uint64_t tests = 0;
  std::uint64_t node_evals = 0;  ///< fsim responses
};

/// A run report kept from the first traced round, with its template.
using KeptReport = std::pair<std::size_t, obs::RunReport>;

struct Phase {
  std::vector<Record> records;
  std::vector<KeptReport> reports;
  std::vector<double> pass_start, pass_end;
  double busy() const {
    double s = 0.0;
    for (std::size_t p = 0; p < pass_start.size(); ++p)
      s += pass_end[p] - pass_start[p];
    return s;
  }
  std::vector<double> pass_ms() const {
    std::vector<double> v;
    for (std::size_t p = 0; p < pass_start.size(); ++p)
      v.push_back((pass_end[p] - pass_start[p]) * 1e3);
    return v;
  }
};

/// Unpacks an answer into `r`; `reports` (when given) receives the run
/// report of a run_atpg answer.
void settle(Record& r, const Template& t,
            const std::optional<obs::Json>& response,
            std::vector<KeptReport>* reports) {
  if (!response) return;
  const obs::Json& frame = *response;
  if (frame.at("ok").as_bool()) {
    const obs::Json& result = frame.at("result");
    r.answered = true;
    r.digest = served_digest(result, t.kind);
    r.server_wall = result.at("wall_seconds").as_double();
    r.faults = result.at("faults").as_u64();
    if (t.kind == Kind::kFsim) {
      r.node_evals = result.at("fsim").at("node_evals").as_u64();
    } else {
      const obs::Json& report = result.at("run_report");
      r.tests = result.at("tests").size();
      r.engine_wall = report.at("wall_seconds").as_double();
      r.solve_s = report.at("solve_seconds").as_double();
      if (reports != nullptr)
        reports->emplace_back(r.tmpl, obs::RunReport::from_json(report));
    }
  } else {
    r.overloaded = frame.at("error").at("code").as_string() == "overloaded";
  }
}

/// Whole passes over the templates for `seconds` (at least one pass),
/// closed loop. `traced` keeps the first round's run reports and frame
/// sizes.
Phase run_phase(Daemon& d, const std::vector<Template>& templates,
                double seconds, bool traced) {
  Phase phase;
  for (const double start = now_s();
       another_pass(start, static_cast<int>(phase.pass_start.size()), seconds);) {
    const std::size_t pass = phase.pass_start.size();
    phase.pass_start.push_back(now_s());
    for (std::size_t k = 0; k < kRoundsPerPass * templates.size(); ++k) {
      Record r;
      r.tmpl = k % templates.size();
      r.pass = pass;
      r.first_round = pass == 0 && k < templates.size();
      const Template& t = templates[r.tmpl];
      const bool keep = traced && r.first_round;
      d.tap.counting = keep;
      r.start = now_s();
      const std::optional<obs::Json> response =
          d.jobs->await(d.jobs->submit(t.rpc(), t.params));
      r.end = now_s();
      d.tap.counting = false;
      r.send_start = d.tap.send_start;
      r.send_end = d.tap.send_end;
      settle(r, t, response, keep ? &phase.reports : nullptr);
      phase.records.push_back(r);
    }
    phase.pass_end.push_back(now_s());
  }
  return phase;
}

}  // namespace

void run_serve_mix(const RunConfig& cfg, Result& out) {
  const std::vector<Circuit> circuits = workload_circuits(cfg.workload,
                                                          cfg.smoke);
  std::string drift;
  const std::vector<Loaded> loaded = load_with_golden(cfg, circuits, &drift);
  if (!drift.empty()) {
    std::cerr << "golden verdicts unusable: " << drift << "\n";
    out.correct = false;
  }

  // Templates: per circuit one per-fault run_atpg, one incremental run_atpg
  // and one fsim batch, with seeds and patterns drawn from --seed.
  std::vector<Template> templates;
  for (std::size_t c = 0; c < loaded.size(); ++c) {
    for (const Kind kind : {Kind::kPerFault, Kind::kIncremental, Kind::kFsim}) {
      Template t;
      t.circuit = c;
      t.kind = kind;
      t.seed = mix_seed(cfg.seed, 3 * c + static_cast<std::size_t>(kind));
      if (kind == Kind::kFsim) {
        cwatpg::Rng rng(t.seed);
        for (std::size_t k = 0; k < kPatternsPerFsim; ++k) {
          fault::Pattern p(loaded[c].net.inputs().size());
          for (std::size_t b = 0; b < p.size(); ++b) p[b] = rng.chance(0.5);
          t.patterns.push_back(std::move(p));
        }
      }
      templates.push_back(std::move(t));
    }
  }

  // Set-up: daemon start, both connections, and load_circuit of every
  // circuit (parse, collapse, base CNF, shared miter). The first pass
  // serves the timed phase; the repeats for a steady median run after it,
  // so their memory never counts in peak_rss_mb.
  auto daemon = std::make_unique<Daemon>();
  std::vector<double> setup_times, load_times;
  const auto boot = [&] {
    daemon->boot(circuits);
    load_times.push_back(daemon->load_s);
  };
  const auto reboot = [&] {
    daemon->shutdown();
    daemon = std::make_unique<Daemon>();
  };
  median_setup(boot, reboot, setup_times, 1, 1, 0.0);
  for (Template& t : templates) {
    t.params = obs::Json::object();
    t.params["circuit"] = daemon->keys[t.circuit];
    if (t.kind == Kind::kFsim) {
      obs::Json patterns = obs::Json::array();
      for (const fault::Pattern& p : t.patterns)
        patterns.push_back(svc::encode_bits(p));
      t.params["patterns"] = std::move(patterns);
    } else {
      t.params["seed"] = t.seed;
      if (t.kind == Kind::kIncremental) t.params["engine"] = "incremental";
    }
  }

  // One untimed pass first: the first passes after start-up ran up to twice
  // as slow as the rest on a shared VM. Its answers are checked too.
  const double phase_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Phase warmup = run_phase(*daemon, templates, 0.0, false);
  Phase plain = run_phase(*daemon, templates, phase_s, false);
  const double peak_rss = peak_rss_mb();
  const svc::ClientStats client_before = daemon->jobs->stats();
  const obs::MetricsSnapshot before = daemon->server->metrics().snapshot();
  Phase traced;
  if (cfg.trace)
    traced = run_phase(*daemon, templates, phase_s, true);
  const obs::MetricsSnapshot after = daemon->server->metrics().snapshot();
  const svc::QueueStats qstats = daemon->server->queue_stats();
  const svc::RegistryStats rstats = daemon->server->registry_stats();
  const svc::ClientStats client_after = daemon->jobs->stats();
  const std::uint64_t frames = daemon->tap.frames, bytes = daemon->tap.bytes;
  daemon->shutdown();
  const double setup_s = median_setup(boot, reboot, setup_times, 5, 25,
                                      cfg.smoke ? 0.3 : 1.0);
  daemon->shutdown();

  // In-process references, outside set-up and the timed phase: the same
  // options the server derives from each request, checked against the
  // golden verdicts (run_atpg) or by independent re-simulation (fsim).
  OkTally ref_tally;
  for (std::size_t k = 0; k < templates.size(); ++k) {
    Template& t = templates[k];
    const net::Network& netw = loaded[t.circuit].net;
    if (t.kind == Kind::kFsim) {
      const std::vector<fault::StuckAtFault> faults =
          fault::collapsed_fault_list(netw);
      std::uint64_t detected = 0;
      for (const fault::StuckAtFault& f : faults)
        for (const fault::Pattern& p : t.patterns)
          if (detects_independently(netw, f, p)) {
            ++detected;
            break;
          }
      t.digest = fsim_digest(faults.size(), detected, t.patterns.size());
      continue;
    }
    fault::AtpgOptions opts;
    opts.seed = t.seed;
    if (t.kind == Kind::kIncremental)
      opts.engine = fault::AtpgEngine::kIncremental;
    fault::AtpgResult r = fault::run_atpg(netw, opts);
    if (cfg.plant_wrong && k == 0) plant_wrong_verdict(r);
    std::string err;
    const std::vector<bool> ok = check_result(
        netw, loaded[t.circuit].golden, r, random_pattern_count(opts), &err);
    ref_tally.add(ok, err);
    t.checked = std::find(ok.begin(), ok.end(), false) == ok.end();
    t.digest = answer_digest(r);
  }
  if (ref_tally.failed != 0)
    std::cerr << "reference check failed: " << ref_tally.first_error << "\n";

  // ok_frac: a request counts when its answer equals the in-process
  // reference and that reference passed the golden check.
  std::uint64_t attempted = 0, failed = 0;
  for (Phase* p : {&warmup, &plain, &traced})
    for (Record& r : p->records) {
      const Template& t = templates[r.tmpl];
      r.ok = r.answered && r.digest == t.digest && t.checked;
      ++attempted;
      if (!r.ok) ++failed;
    }
  out.attempted = attempted;
  out.failed = failed;
  out.correct = out.correct && failed == 0;

  std::uint64_t faults = 0, round_tests = 0;
  for (const Record& r : plain.records) {
    if (templates[r.tmpl].kind == Kind::kFsim) continue;
    faults += r.faults;
    if (r.first_round) round_tests += r.tests;
  }
  const std::vector<double> pass_ms = plain.pass_ms();
  std::cerr << "serve-mix: " << pass_ms.size() << " passes (latency samples)"
            << " of " << kRoundsPerPass * templates.size() << " requests, "
            << faults
            << " faults in " << plain.busy() << " s; pass ms p10/p50/p90/"
            << "p99/max: " << quantile(pass_ms, 0.1) << " "
            << quantile(pass_ms, 0.5) << " " << quantile(pass_ms, 0.9) << " "
            << quantile(pass_ms, 0.99) << " " << quantile(pass_ms, 1.0)
            << "\n";
  if (!cfg.trace) {
    out.set("faults_per_s", static_cast<double>(faults) / plain.busy(),
            "faults/s");
    out.set("latency_p50_ms", quantile(pass_ms, 0.5), "ms");
    out.set("latency_p99_ms", quantile(pass_ms, 0.99), "ms");
    out.set("ok_frac",
            1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
            "ratio");
    out.set("test_patterns", static_cast<double>(round_tests), "count");
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss, "MiB");
    return;
  }

  // Per-layer view of the traced phase, one timeline: pass [start, end] >
  // request [submit, answer] > client.send (the request write) and
  // server.exec (its wall_seconds, ending at the answer) > engine
  // (run_report wall) > sat (run_report solve seconds).
  Tracer tracer;
  for (std::size_t p = 0; p < traced.pass_start.size(); ++p)
    tracer.add("pass", traced.pass_start[p], traced.pass_end[p], p);
  std::vector<double> wait_ms;
  double busy = 0.0;
  std::uint64_t node_evals = 0, fsim_calls = 0, overloaded = 0;
  std::vector<obs::RunReport> per_fault, incremental;
  for (std::size_t i = 0; i < traced.records.size(); ++i) {
    const Record& r = traced.records[i];
    if (r.overloaded) ++overloaded;
    if (!r.ok) continue;
    const Kind kind = templates[r.tmpl].kind;
    tracer.add("request", r.start, r.end, i + 1);
    const double exec_start =
        std::max(r.send_start, r.end - r.server_wall);
    tracer.add("client.send", r.send_start, std::min(r.send_end, exec_start),
               i + 1);
    tracer.add(kind == Kind::kFsim ? "server.fsim" : "server.exec",
               exec_start, r.end, i + 1);
    busy += r.server_wall;
    wait_ms.push_back(std::max(0.0, (r.end - r.start) - r.server_wall) * 1e3);
    if (kind == Kind::kFsim) {
      if (r.first_round) {
        ++fsim_calls;
        node_evals += r.node_evals;
      }
      continue;
    }
    const double engine_end = std::min(r.end, exec_start + r.engine_wall);
    tracer.add("engine", exec_start, engine_end, i + 1);
    tracer.add("sat", exec_start, std::min(engine_end, exec_start + r.solve_s),
               i + 1);
  }
  for (const auto& [tmpl, report] : traced.reports)
    (templates[tmpl].kind == Kind::kIncremental ? incremental : per_fault)
        .push_back(report);
  const std::map<std::string, double> self = tracer.self_times();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double per_pass = 1.0 / static_cast<double>(traced.pass_start.size());
  const obs::RunReport pf = obs::merge_runs(per_fault);
  const obs::RunReport inc = obs::merge_runs(incremental);
  const auto status = [](const obs::RunReport& rep, const char* key) {
    const auto it = rep.status_counts.find(key);
    return it == rep.status_counts.end() ? std::uint64_t(0) : it->second;
  };
  const auto counter_delta = [&](const char* name) {
    const auto a = after.counters.find(name);
    const auto b = before.counters.find(name);
    return static_cast<double>(
        (a == after.counters.end() ? 0 : a->second) -
        (b == before.counters.end() ? 0 : b->second));
  };
  const std::uint64_t solves = pf.sat_instances + inc.sat_instances;
  sat::SolverStats solver = pf.solver;
  solver += inc.solver;
  const double all_faults = static_cast<double>(pf.faults + inc.faults);
  const auto engine_count = [](const obs::RunReport& rep, const char* key) {
    const auto it = rep.engine_counts.find(key);
    return it == rep.engine_counts.end() ? std::uint64_t(0) : it->second;
  };
  double parse_s = 0.0;
  {
    std::vector<double> parses;
    for (int k = 0; k < 5; ++k) {
      const double t0 = now_s();
      for (const Circuit& c : circuits) net::read_bench_string(c.text, c.name);
      parses.push_back(now_s() - t0);
    }
    parse_s = median(parses);
  }

  out.set("netlist.parse_s", parse_s, "s");
  out.set("fsim.calls", static_cast<double>(fsim_calls), "count");
  out.set("fsim.busy_s", self_of("server.fsim") * per_pass, "s");
  out.set("fsim.node_evals", static_cast<double>(node_evals), "count");
  out.set("miter.builds", static_cast<double>(pf.sat_instances), "count");
  out.set("sat.solves", static_cast<double>(solves), "count");
  out.set("sat.busy_s", self_of("sat") * per_pass, "s");
  out.set("sat.conflicts", static_cast<double>(solver.conflicts), "count");
  out.set("sat.propagations", static_cast<double>(solver.propagations),
          "count");
  out.set("sat.decisions", static_cast<double>(solver.decisions), "count");
  out.set("sat.unsat_frac",
          solves == 0 ? 0.0
                      : static_cast<double>(status(pf, "untestable") +
                                            status(inc, "untestable")) /
                            static_cast<double>(solves),
          "ratio");
  out.set("tegus.dropped_random",
          static_cast<double>(status(pf, "dropped-random") +
                              status(inc, "dropped-random")),
          "count");
  out.set("tegus.dropped_sim",
          static_cast<double>(status(pf, "dropped-sim") +
                              status(inc, "dropped-sim")),
          "count");
  out.set("tegus.solve_frac",
          all_faults == 0 ? 0.0 : static_cast<double>(solves) / all_faults,
          "ratio");
  out.set("incremental.queries",
          static_cast<double>(engine_count(inc, "incremental")), "count");
  out.set("incremental.reused_implications",
          static_cast<double>(inc.solver.reused_implications), "count");
  out.set("engine.other_s", self_of("engine") * per_pass, "s");
  out.set("report.build_s", self_of("server.exec") * per_pass, "s");
  out.set("proto.frames", static_cast<double>(frames), "count");
  out.set("proto.bytes", static_cast<double>(bytes), "bytes");
  out.set("client.codec_s", self_of("client.send") * per_pass, "s");
  out.set("net.wait_s", self_of("request") * per_pass, "s");
  const double per_round = per_pass / kRoundsPerPass;
  out.set("net.bytes_in", counter_delta("net.bytes.in") * per_round, "bytes");
  out.set("net.bytes_out", counter_delta("net.bytes.out") * per_round,
          "bytes");
  out.set("server.busy_s", busy * per_pass, "s");
  out.set("server.util",
          busy / (static_cast<double>(kPoolWorkers) * traced.busy()), "ratio");
  out.set("server.wait_ms_p50", quantile(wait_ms, 0.5), "ms");
  out.set("server.wait_ms_p99", quantile(wait_ms, 0.99), "ms");
  out.set("queue.max_depth", static_cast<double>(qstats.max_depth), "count");
  out.set("queue.rejected", static_cast<double>(qstats.rejected), "count");
  out.set("registry.load_s", median(load_times), "s");
  out.set("registry.bytes", static_cast<double>(rstats.bytes), "bytes");
  out.set("client.retries",
          static_cast<double>(client_after.retries - client_before.retries),
          "count");
  out.set("client.overloaded",
          static_cast<double>(std::max<std::uint64_t>(
              overloaded, client_after.overloaded - client_before.overloaded)),
          "count");
  const double traced_p50 = quantile(traced.pass_ms(), 0.5);
  out.set("trace.overhead_frac",
          traced_p50 > 0 ? 1.0 - quantile(pass_ms, 0.5) / traced_p50 : 0.0,
          "ratio");
  out.set("trace.harness_s", self_of("pass") * per_pass, "s");
  out.partition = {"client.codec_s", "net.wait_s",   "fsim.busy_s",
                   "report.build_s", "engine.other_s", "sat.busy_s"};
  out.timeline_s = traced.busy() * per_pass;
  if (!cfg.trace_path.empty()) tracer.write_jsonl(cfg.trace_path);
}

}  // namespace perfbench
