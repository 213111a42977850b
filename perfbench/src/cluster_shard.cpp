// cluster-shard: the tegus-drop job set, one job at a time, through an
// in-process svc::Cluster whose two worker svc::Servers sit behind kernel
// pipes (svc::FdTransport, the transport spawned workers use). The client
// reaches the coordinator over loopback TCP with svc::Client, the way
// `cwatpg_cluster --listen` is served. Taps on the client's connection, on
// the coordinator's end of it and on every worker pipe timestamp the
// frames, so the traced run can split each job's time by layer.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "fault/fault.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "obs/report.hpp"
#include "svc/client.hpp"
#include "svc/cluster.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"
#include "svc/spawn.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kWorkers = 2;
/// Set-up sends replication-triggering jobs in rounds of this many per
/// worker, and gives up after kReplicationRounds rounds per circuit.
constexpr std::size_t kJobsPerWorkerRound = 4;
constexpr int kReplicationRounds = 16;
constexpr double kInf = std::numeric_limits<double>::infinity();

const std::string* string_field(const obs::Json& j, const char* key) {
  const obs::Json* v = j.find(key);
  return v != nullptr && v->is_string() ? &v->as_string() : nullptr;
}

const obs::Json* run_report_of(const obs::Json& frame) {
  const obs::Json* result = frame.find("result");
  return result != nullptr ? result->find("run_report") : nullptr;
}

/// What the taps saw. Worker pipes are tapped on the coordinator's worker
/// threads and its TCP end on its reader thread, so all of it is guarded
/// by `mutex`.
struct Probe {
  std::mutex mutex;
  bool tracing = false;   ///< record job times and worker effort
  bool counting = false;  ///< also count frames, bytes and exact effort

  // Replication: the coordinator's load_circuit calls to its workers.
  std::array<std::set<std::string>, kWorkers> loaded;  ///< circuit keys
  std::array<std::uint64_t, kWorkers> load_id{};
  std::array<double, kWorkers> load_start{};
  double replicate_s = 0.0;

  // The job in flight.
  double send_start = 0.0, send_end = 0.0;  ///< client request write
  double request_read = 0.0;                ///< coordinator has it
  double first_dispatch = kInf;             ///< first shard written
  double last_reply = 0.0;                  ///< last shard reply read
  std::array<double, kWorkers> dispatched{};

  // Totals while tracing / counting.
  std::vector<double> shard_wait_ms;
  double worker_solve_s = 0.0;
  std::uint64_t frames = 0, bytes = 0, net_in = 0, net_out = 0;
  std::uint64_t worker_solves = 0, worker_untestable = 0, unreadable = 0;
  sat::SolverStats worker_solver;

  void worker_frame(std::size_t w, const obs::Json& frame, bool written,
                    double t0, double t1) {
    std::lock_guard<std::mutex> lock(mutex);
    if (counting) {
      ++frames;
      bytes += frame_bytes(frame);
    }
    const obs::Json* id = frame.find("id");
    if (written) {
      const std::string* kind = string_field(frame, "kind");
      if (kind == nullptr) return;
      if (*kind == "load_circuit") {
        load_id[w] = id->as_u64();
        load_start[w] = t0;
      } else if (*kind == "run_atpg") {
        dispatched[w] = t0;
        first_dispatch = std::min(first_dispatch, t0);
      }
      return;
    }
    if (load_start[w] > 0 && id != nullptr && id->as_u64() == load_id[w]) {
      replicate_s += t1 - load_start[w];
      load_start[w] = 0;
      if (frame.at("ok").as_bool())
        loaded[w].insert(
            frame.at("result").at("circuit").at("key").as_string());
      return;
    }
    const obs::Json* report = run_report_of(frame);
    if (report == nullptr) return;
    last_reply = std::max(last_reply, t1);
    if (!tracing) return;
    const double wall = frame.at("result").at("wall_seconds").as_double();
    shard_wait_ms.push_back(std::max(0.0, t1 - dispatched[w] - wall) * 1e3);
    worker_solve_s += report->at("solve_seconds").as_double();
    if (!counting) return;
    // A report this tap cannot read must not take the cluster down (this
    // runs on a coordinator thread), only leave the counts short.
    try {
      const obs::RunReport r = obs::RunReport::from_json(*report);
      worker_solves += r.sat_instances;
      worker_solver += r.solver;
      const auto it = r.status_counts.find("untestable");
      if (it != r.status_counts.end()) worker_untestable += it->second;
    } catch (const std::exception&) {
      ++unreadable;
    }
  }

  void session_frame(const obs::Json& frame, bool written, double t1) {
    if (written) return;
    const std::string* kind = string_field(frame, "kind");
    if (kind == nullptr || *kind != "run_atpg") return;
    std::lock_guard<std::mutex> lock(mutex);
    request_read = t1;
  }

  void client_frame(const obs::Json& frame, bool written, double t0,
                    double t1) {
    std::lock_guard<std::mutex> lock(mutex);
    const std::string* kind = written ? string_field(frame, "kind") : nullptr;
    if (kind != nullptr && *kind == "run_atpg") {
      send_start = t0;
      send_end = t1;
    }
    if (!counting) return;
    const std::uint64_t n = frame_bytes(frame);
    ++frames;
    bytes += n;
    (written ? net_out : net_in) += n;
  }
};

obs::Json load_params(const Circuit& c) {
  obs::Json params = obs::Json::object();
  params["name"] = c.name;
  params["text"] = c.text;
  return params;
}

/// Workers, pipes, coordinator and the client's TCP connection.
struct Fleet {
  Probe probe;
  std::vector<std::unique_ptr<svc::Server>> servers;
  std::vector<std::unique_ptr<svc::Transport>> worker_sides;
  std::vector<std::thread> server_loops;
  std::unique_ptr<svc::Cluster> cluster;
  std::unique_ptr<netio::Listener> listener;
  std::thread cluster_loop;
  std::unique_ptr<svc::Transport> front;
  std::unique_ptr<svc::Client> client;
  std::vector<std::string> keys;
  double load_s = 0.0;

  /// Submits a job and waits for its terminal response.
  obs::Json run(const char* kind, obs::Json params) {
    const std::optional<obs::Json> resp =
        client->await(client->submit(kind, std::move(params)));
    if (!resp) throw std::runtime_error("cluster closed the connection");
    return *resp;
  }

  void boot(const std::vector<Circuit>& circuits,
            const std::vector<std::size_t>& inputs) {
    std::vector<svc::Cluster::WorkerEndpoint> endpoints;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      int to_worker[2], from_worker[2];
      if (::pipe(to_worker) != 0) throw std::runtime_error("pipe failed");
      if (::pipe(from_worker) != 0) {
        ::close(to_worker[0]);
        ::close(to_worker[1]);
        throw std::runtime_error("pipe failed");
      }
      worker_sides.push_back(std::make_unique<svc::FdTransport>(
          to_worker[0], from_worker[1]));
      svc::ServerOptions sopts;
      sopts.threads = 1;
      servers.push_back(std::make_unique<svc::Server>(sopts));
      server_loops.emplace_back(
          [server = servers.back().get(), side = worker_sides.back().get()] {
            server->serve(*side);
          });
      svc::Cluster::WorkerEndpoint e;
      e.transport = std::make_unique<TapTransport>(
          std::make_unique<svc::FdTransport>(from_worker[0], to_worker[1]),
          [this, w](const obs::Json& f, bool written, double t0, double t1) {
            probe.worker_frame(w, f, written, t0, t1);
          });
      e.name = "w" + std::to_string(w);
      endpoints.push_back(std::move(e));
    }
    cluster = std::make_unique<svc::Cluster>(std::move(endpoints));
    listener = std::make_unique<netio::Listener>("127.0.0.1", 0);
    cluster_loop = std::thread([this] {
      try {
        TapTransport session(
            std::make_unique<netio::SocketTransport>(
                listener->accept_one_blocking()),
            [this](const obs::Json& f, bool written, double, double t1) {
              probe.session_frame(f, written, t1);
            });
        cluster->serve(session);
      } catch (const std::exception& e) {
        std::cerr << "cluster-shard: coordinator failed: " << e.what() << "\n";
      }
    });
    front = std::make_unique<TapTransport>(
        std::make_unique<netio::SocketTransport>(
            netio::tcp_connect("127.0.0.1", listener->port())),
        [this](const obs::Json& f, bool written, double t0, double t1) {
          probe.client_frame(f, written, t0, t1);
        });
    client = std::make_unique<svc::Client>(*front);
    const double l0 = now_s();
    for (const Circuit& c : circuits) {
      const obs::Json resp = client->call("load_circuit", load_params(c));
      if (!resp.at("ok").as_bool())
        throw std::runtime_error("cluster load_circuit failed");
      keys.push_back(resp.at("result").at("circuit").at("key").as_string());
    }
    load_s = now_s() - l0;
    replicate(circuits, inputs);
  }

  /// The coordinator replicates a circuit to a worker lazily, with the
  /// first job of that circuit the worker takes. Set-up ends when every
  /// worker holds every circuit: per circuit, rounds of one-pattern fsim
  /// jobs go out at once (an idle worker takes the next queued job, so
  /// they spread), until the worker taps have seen every load.
  void replicate(const std::vector<Circuit>& circuits,
                 const std::vector<std::size_t>& inputs) {
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      for (int round = 0;; ++round) {
        {
          std::lock_guard<std::mutex> lock(probe.mutex);
          if (std::all_of(probe.loaded.begin(), probe.loaded.end(),
                          [&](const std::set<std::string>& s) {
                            return s.count(keys[i]) != 0;
                          }))
            break;
        }
        if (round == kReplicationRounds)
          throw std::runtime_error("could not replicate " + keys[i] +
                                   " to every worker");
        obs::Json params = obs::Json::object();
        params["circuit"] = keys[i];
        obs::Json patterns = obs::Json::array();
        patterns.push_back(svc::encode_bits(fault::Pattern(inputs[i], false)));
        params["patterns"] = std::move(patterns);
        std::vector<std::uint64_t> ids;
        for (std::size_t k = 0; k < kWorkers * kJobsPerWorkerRound; ++k)
          ids.push_back(client->submit("fsim", params));
        for (const std::uint64_t id : ids) {
          const std::optional<obs::Json> resp = client->await(id);
          if (!resp || !resp->at("ok").as_bool())
            throw std::runtime_error("cluster fsim failed during set-up");
        }
      }
    }
  }

  /// Drains the coordinator, then lets every worker see end-of-stream.
  void shutdown() {
    if (cluster_loop.joinable()) {
      try {
        client->call("shutdown");
      } catch (const std::exception&) {
      }
      front->close();
      cluster_loop.join();
    }
    client.reset();
    front.reset();
    listener.reset();
    cluster.reset();  // closes the coordinator ends of the worker pipes
    for (std::thread& t : server_loops) t.join();
    server_loops.clear();
  }

  ~Fleet() { shutdown(); }
};

struct Job {
  double start = 0.0, end = 0.0;
  double send_start = 0.0, send_end = 0.0;
  double request_read = 0.0, first_dispatch = kInf, last_reply = 0.0;
  double coord_wall = 0.0;  ///< the coordinator's wall_seconds
  double merge_s = 0.0;     ///< merged run_report.wall_seconds (replay)
  std::uint64_t digest = 0;
  std::uint64_t faults = 0;
  std::uint64_t tests = 0;
  std::uint64_t dropped_random = 0, dropped_sim = 0;  ///< counted jobs only
  bool ok_frame = false;

  double latency() const { return end - start; }
};

Job run_job(Fleet& fleet, std::size_t circuit, std::uint64_t seed) {
  obs::Json params = obs::Json::object();
  params["circuit"] = fleet.keys[circuit];
  params["seed"] = seed;
  Job job;
  bool counting = false;
  {
    std::lock_guard<std::mutex> lock(fleet.probe.mutex);
    fleet.probe.first_dispatch = kInf;
    fleet.probe.last_reply = 0.0;
    counting = fleet.probe.counting;
  }
  job.start = now_s();
  const obs::Json resp = fleet.run("run_atpg", std::move(params));
  job.end = now_s();
  {
    std::lock_guard<std::mutex> lock(fleet.probe.mutex);
    job.send_start = fleet.probe.send_start;
    job.send_end = fleet.probe.send_end;
    job.request_read = fleet.probe.request_read;
    job.first_dispatch = fleet.probe.first_dispatch;
    job.last_reply = fleet.probe.last_reply;
  }
  if (!resp.at("ok").as_bool()) return job;
  const obs::Json& result = resp.at("result");
  job.ok_frame = true;
  job.digest = answer_digest(result);
  job.faults = result.at("faults").as_u64();
  job.tests = result.at("tests").size();
  job.coord_wall = result.at("wall_seconds").as_double();
  job.merge_s = result.at("run_report").at("wall_seconds").as_double();
  if (counting) {
    const obs::RunReport r = obs::RunReport::from_json(result.at("run_report"));
    const auto count = [&](const char* key) {
      const auto it = r.status_counts.find(key);
      return it == r.status_counts.end() ? std::uint64_t(0) : it->second;
    };
    job.dropped_random = count("dropped-random");
    job.dropped_sim = count("dropped-sim");
  }
  return job;
}

/// Lays one traced job out on the timeline: job [submit, answer] >
/// client.send (the request write) and coord [request read, + the
/// coordinator's wall_seconds] > dispatch [first shard out, last reply in],
/// merge (the replay, run_report wall) and report.build (the rest of the
/// coordinator's wall after the replay).
void trace_job(Tracer& tracer, const Job& j, std::uint64_t id) {
  tracer.add("job", j.start, j.end, id);
  // On loopback the coordinator can take the request before the client's
  // write call has returned; from then on the time is the coordinator's.
  const double coord_start = std::max(j.request_read, j.send_start);
  tracer.add("client.send", j.send_start, std::min(j.send_end, coord_start),
             id);
  const double coord_end = std::min(j.end, coord_start + j.coord_wall);
  tracer.add("coord", coord_start, coord_end, id);
  double merge_start = coord_start;
  if (j.first_dispatch < j.last_reply) {
    tracer.add("dispatch", std::max(coord_start, j.first_dispatch),
               std::min(coord_end, j.last_reply), id);
    merge_start = std::min(coord_end, j.last_reply);
  }
  const double merge_end = std::min(coord_end, merge_start + j.merge_s);
  tracer.add("merge", merge_start, merge_end, id);
  tracer.add("report.build", merge_end, coord_end, id);
}

double job_seconds_sum(svc::Server& server) {
  const obs::MetricsSnapshot s = server.metrics().snapshot();
  const auto it = s.histograms.find("svc.job_seconds");
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

}  // namespace

void run_cluster_shard(const RunConfig& cfg, Result& out) {
  const std::vector<Circuit> circuits = workload_circuits(cfg.workload,
                                                          cfg.smoke);
  std::string drift;
  const std::vector<Loaded> loaded = load_with_golden(cfg, circuits, &drift);
  if (!drift.empty()) {
    std::cerr << "golden verdicts unusable: " << drift << "\n";
    out.correct = false;
  }
  std::vector<std::size_t> inputs;
  for (const Loaded& l : loaded) inputs.push_back(l.net.inputs().size());

  // Set-up: pipes, worker servers, coordinator, TCP connection,
  // load_circuit, and the coordinator's replication of every circuit to
  // every worker. The first pass serves the timed phase; the repeats for a
  // steady median run after it, so their memory never counts in
  // peak_rss_mb.
  auto fleet = std::make_unique<Fleet>();
  std::vector<double> setup_times, replicate_times, load_times;
  const auto boot = [&] {
    fleet->boot(circuits, inputs);
    std::lock_guard<std::mutex> lock(fleet->probe.mutex);
    replicate_times.push_back(fleet->probe.replicate_s);
    load_times.push_back(fleet->load_s);
  };
  const auto reboot = [&] {
    fleet->shutdown();
    fleet = std::make_unique<Fleet>();
  };
  median_setup(boot, reboot, setup_times, 1, 1, 0.0);

  // One untimed pass first: the first seconds after start-up ran slower
  // than the rest on a shared VM. Its answers are checked like every other.
  std::vector<Job> jobs;
  std::vector<std::size_t> job_circuit;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    jobs.push_back(run_job(*fleet, i, tegus_options(cfg.seed, i).seed));
    job_circuit.push_back(i);
  }

  // Timed phase: whole passes of the tegus-drop job set, closed loop.
  const double phase_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<double> pass_ms;  // latency of one complete job set
  double busy = 0.0;
  std::uint64_t faults = 0, pass0_tests = 0;
  int passes = 0;
  for (const double start = now_s(); another_pass(start, passes, phase_s);
       ++passes) {
    pass_ms.push_back(0.0);
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const Job j = run_job(*fleet, i, tegus_options(cfg.seed, i).seed);
      busy += j.latency();
      pass_ms.back() += j.latency() * 1e3;
      faults += j.faults;
      if (passes == 0) pass0_tests += j.tests;
      jobs.push_back(j);
      job_circuit.push_back(i);
    }
  }
  const double peak_rss = peak_rss_mb();

  // Traced phase: the same jobs with the taps recording; the first traced
  // pass also counts frames, bytes and exact effort.
  Tracer tracer;
  int traced_passes = 0;
  double traced_wall = 0.0, traced_busy = 0.0, worker_busy = 0.0;
  std::uint64_t traced_faults = 0, queue_depth = 0, queue_rejected = 0,
                dropped_random = 0, dropped_sim = 0;
  svc::ClusterStats before{}, after{};
  if (cfg.trace) {
    before = fleet->cluster->stats();
    double workers_before = 0.0;
    for (const auto& s : fleet->servers) workers_before += job_seconds_sum(*s);
    std::uint64_t id = 0;
    const double start = now_s();
    for (; another_pass(start, traced_passes, phase_s); ++traced_passes) {
      {
        std::lock_guard<std::mutex> lock(fleet->probe.mutex);
        fleet->probe.tracing = true;
        fleet->probe.counting = traced_passes == 0;
      }
      for (std::size_t i = 0; i < circuits.size(); ++i) {
        const Job j = run_job(*fleet, i, tegus_options(cfg.seed, i).seed);
        trace_job(tracer, j, ++id);
        traced_busy += j.latency();
        traced_faults += j.faults;
        dropped_random += j.dropped_random;
        dropped_sim += j.dropped_sim;
        jobs.push_back(j);
        job_circuit.push_back(i);
      }
      if (traced_passes == 0) after = fleet->cluster->stats();
    }
    traced_wall = now_s() - start;
    tracer.add("harness", start, start + traced_wall, 0);
    {
      std::lock_guard<std::mutex> lock(fleet->probe.mutex);
      fleet->probe.tracing = false;
      fleet->probe.counting = false;
    }
    for (const auto& s : fleet->servers) {
      const svc::QueueStats q = s->queue_stats();
      queue_depth = std::max<std::uint64_t>(queue_depth, q.max_depth);
      queue_rejected += q.rejected;
      worker_busy += job_seconds_sum(*s);
    }
    worker_busy -= workers_before;
  }
  const svc::ClientStats client_stats = fleet->client->stats();
  const double registry_bytes = [&] {
    double b = 0.0;
    for (const auto& s : fleet->servers)
      b += static_cast<double>(s->registry_stats().bytes);
    return b;
  }();
  fleet->shutdown();
  // The probe outlives the fleet's threads: read it after shutdown.
  Probe& probe = fleet->probe;
  if (probe.unreadable != 0)
    std::cerr << "cluster-shard: " << probe.unreadable
              << " worker reports could not be read\n";
  const std::vector<double> shard_wait_ms = probe.shard_wait_ms;
  const double worker_solve_s = probe.worker_solve_s;
  const std::uint64_t frames = probe.frames, frame_bytes_total = probe.bytes,
                      net_in = probe.net_in, net_out = probe.net_out,
                      worker_solves = probe.worker_solves,
                      worker_untestable = probe.worker_untestable;
  const sat::SolverStats worker_solver = probe.worker_solver;
  const double setup_s = median_setup(boot, reboot, setup_times, 5, 10,
                                      cfg.smoke ? 0.3 : 1.5);
  fleet->shutdown();

  // References, outside set-up and the timed phase: the single-node
  // in-process result of every job, checked against the golden verdicts.
  std::vector<std::uint64_t> ref_digest(circuits.size());
  std::vector<bool> ref_ok(circuits.size());
  std::uint64_t single_node_solves = 0;
  std::string first_error;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const fault::AtpgOptions opts = tegus_options(cfg.seed, i);
    fault::AtpgResult r = fault::run_atpg(loaded[i].net, opts);
    if (cfg.plant_wrong && i == 0) plant_wrong_verdict(r);
    for (const fault::FaultOutcome& o : r.outcomes)
      if (o.engine != fault::SolveEngine::kNone) ++single_node_solves;
    std::string err;
    const std::vector<bool> ok = check_result(
        loaded[i].net, loaded[i].golden, r, random_pattern_count(opts), &err);
    ref_ok[i] = std::find(ok.begin(), ok.end(), false) == ok.end();
    if (first_error.empty()) first_error = err;
    ref_digest[i] = answer_digest(r);
  }
  std::uint64_t failed = 0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const std::size_t i = job_circuit[k];
    if (!jobs[k].ok_frame || jobs[k].digest != ref_digest[i] || !ref_ok[i]) {
      if (first_error.empty())
        first_error = circuits[i].name + ": cluster answer differs from the "
                                         "single-node result";
      ++failed;
    }
  }
  if (failed != 0) std::cerr << "check failed: " << first_error << "\n";
  out.attempted = jobs.size();
  out.failed = failed;
  out.correct = out.correct && failed == 0;

  const double fps = static_cast<double>(faults) / busy;
  std::cerr << "cluster-shard: " << passes << " passes (latency samples), "
            << faults << " faults in " << busy << " s; pass ms:";
  for (const double ms : pass_ms) std::cerr << " " << ms;
  std::cerr << "\n";
  if (!cfg.trace) {
    out.set("faults_per_s", fps, "faults/s");
    out.set("latency_p50_ms", quantile(pass_ms, 0.5), "ms");
    out.set("latency_p99_ms", quantile(pass_ms, 0.99), "ms");
    out.set("ok_frac",
            1.0 - static_cast<double>(failed) / static_cast<double>(jobs.size()),
            "ratio");
    out.set("test_patterns", static_cast<double>(pass0_tests), "count");
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss, "MiB");
    return;
  }

  const std::map<std::string, double> self = tracer.self_times();
  const double per_pass = 1.0 / traced_passes;
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second * per_pass;
  };
  const double worker_util =
      worker_busy / (static_cast<double>(kWorkers) * traced_wall);
  out.set("miter.builds", static_cast<double>(worker_solves), "count");
  out.set("sat.solves", static_cast<double>(worker_solves), "count");
  out.set("sat.busy_s", worker_solve_s * per_pass, "s");
  out.set("sat.conflicts", static_cast<double>(worker_solver.conflicts),
          "count");
  out.set("sat.propagations", static_cast<double>(worker_solver.propagations),
          "count");
  out.set("sat.decisions", static_cast<double>(worker_solver.decisions),
          "count");
  out.set("sat.unsat_frac",
          worker_solves == 0 ? 0.0
                             : static_cast<double>(worker_untestable) /
                                   static_cast<double>(worker_solves),
          "ratio");
  out.set("tegus.dropped_random", static_cast<double>(dropped_random),
          "count");
  out.set("tegus.dropped_sim", static_cast<double>(dropped_sim), "count");
  out.set("report.build_s", self_of("report.build"), "s");
  out.set("proto.frames", static_cast<double>(frames), "count");
  out.set("proto.bytes", static_cast<double>(frame_bytes_total), "bytes");
  out.set("client.codec_s", self_of("client.send"), "s");
  out.set("net.wait_s", self_of("job"), "s");
  out.set("net.bytes_in", static_cast<double>(net_in), "bytes");
  out.set("net.bytes_out", static_cast<double>(net_out), "bytes");
  out.set("server.busy_s", worker_busy * per_pass, "s");
  out.set("server.util", worker_util, "ratio");
  out.set("server.wait_ms_p50", quantile(shard_wait_ms, 0.5), "ms");
  out.set("server.wait_ms_p99", quantile(shard_wait_ms, 0.99), "ms");
  out.set("queue.max_depth", static_cast<double>(queue_depth), "count");
  out.set("queue.rejected", static_cast<double>(queue_rejected), "count");
  out.set("registry.load_s", median(load_times), "s");
  out.set("registry.bytes", registry_bytes, "bytes");
  out.set("cluster.shards",
          static_cast<double>(after.shards_dispatched - before.shards_dispatched),
          "count");
  out.set("cluster.redispatched",
          static_cast<double>(after.redispatched - before.redispatched),
          "count");
  out.set("cluster.coord_s", self_of("coord"), "s");
  out.set("cluster.dispatch_s", self_of("dispatch"), "s");
  out.set("cluster.merge_s", self_of("merge"), "s");
  out.set("cluster.worker_busy_s", worker_busy * per_pass, "s");
  out.set("cluster.worker_util", worker_util, "ratio");
  out.set("cluster.solve_ratio",
          single_node_solves == 0
              ? 0.0
              : static_cast<double>(worker_solves) /
                    static_cast<double>(single_node_solves),
          "ratio");
  out.set("cluster.replicate_s", median(replicate_times), "s");
  out.set("client.retries", static_cast<double>(client_stats.retries),
          "count");
  out.set("client.overloaded", static_cast<double>(client_stats.overloaded),
          "count");
  out.set("trace.overhead_frac",
          1.0 - (static_cast<double>(traced_faults) / traced_busy) / fps,
          "ratio");
  out.set("trace.harness_s", self_of("harness"), "s");
  out.partition = {"client.codec_s", "net.wait_s",    "cluster.coord_s",
                   "cluster.dispatch_s", "cluster.merge_s", "report.build_s"};
  out.timeline_s = traced_wall * per_pass;
  if (!cfg.trace_path.empty()) tracer.write_jsonl(cfg.trace_path);
}

}  // namespace perfbench
