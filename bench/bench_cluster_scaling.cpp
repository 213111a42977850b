// Cluster scaling: the sharded coordinator over 1, 2 and 4 workers.
//
// Builds an in-process cluster — svc::Cluster over worker svc::Servers,
// every hop on a byte-level duplex (real cwatpg.rpc/1 frame encode/decode
// on both sides, the same bytes the spawned-process topology ships over
// pipes) — and runs the same ATPG jobs on the two largest ISCAS85-like
// suite members at each worker count. Reports per-count wall-clock,
// speedup over the 1-worker cluster, shard/redispatch counters, and
// verifies the merged classification is IDENTICAL across worker counts
// (the cluster's determinism contract; a mismatch fails the bench).
//
//   --scale=F     suite scale (default 0.25 keeps the smoke run quick)
//   --seed=S      ATPG seed forwarded to every job
//   --json=FILE   canonical bench report; extra.configs carries the
//                 per-worker-count wall/speedup/shards/redispatched rows
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "gen/suites.hpp"
#include "netlist/bench_io.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "svc/cluster.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"
#include "svc/transport.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace cwatpg;

obs::Json request_json(std::uint64_t id, const char* kind, obs::Json params) {
  obs::Json j = obs::Json::object();
  j["schema"] = svc::kRpcSchema;
  j["id"] = id;
  j["kind"] = kind;
  j["params"] = std::move(params);
  return j;
}

struct ConfigResult {
  std::size_t workers = 0;
  double wall_seconds = 0.0;
  std::uint64_t shards = 0;
  std::uint64_t redispatched = 0;
  /// Classification signature per circuit: totals + the test set, dumped;
  /// must be identical across worker counts.
  std::vector<std::string> signatures;
  std::vector<obs::RunReport> reports;
};

/// Runs every circuit once through a fresh `workers`-wide cluster.
ConfigResult run_config(std::size_t workers,
                        const std::vector<net::Network>& circuits,
                        std::uint64_t seed) {
  ConfigResult out;
  out.workers = workers;

  std::vector<std::unique_ptr<svc::Server>> servers;
  std::vector<std::unique_ptr<svc::Transport>> server_sides;
  std::vector<std::thread> server_loops;
  std::vector<svc::Cluster::WorkerEndpoint> endpoints;
  for (std::size_t i = 0; i < workers; ++i) {
    svc::DuplexPair pair = svc::make_byte_duplex();
    svc::ServerOptions sopts;
    sopts.threads = 1;
    servers.push_back(std::make_unique<svc::Server>(sopts));
    svc::Server* server = servers.back().get();
    svc::Transport* side = pair.server.get();
    server_sides.push_back(std::move(pair.server));
    server_loops.emplace_back([server, side] { server->serve(*side); });
    svc::Cluster::WorkerEndpoint e;
    e.transport = std::move(pair.client);
    e.name = std::string("w").append(std::to_string(i));
    endpoints.push_back(std::move(e));
  }

  svc::ClusterOptions copts;
  copts.shard_size = 64;
  svc::Cluster cluster(std::move(endpoints), copts);
  svc::DuplexPair front = svc::make_byte_duplex();
  std::thread cluster_loop([&] { cluster.serve(*front.server); });
  svc::Transport& client = *front.client;

  std::uint64_t next_id = 1;
  Timer wall;
  for (const net::Network& n : circuits) {
    std::ostringstream text;
    net::write_bench(text, n);
    obs::Json load = obs::Json::object();
    load["name"] = n.name();
    load["text"] = text.str();
    client.write(request_json(next_id++, "load_circuit", std::move(load)));
    obs::Json resp;
    if (!client.read(resp) || !resp.at("ok").as_bool())
      throw std::runtime_error("load_circuit failed: " + resp.dump());
    const std::string key =
        resp.at("result").at("circuit").at("key").as_string();

    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    params["seed"] = seed;
    client.write(request_json(next_id++, "run_atpg", std::move(params)));
    if (!client.read(resp) || !resp.at("ok").as_bool())
      throw std::runtime_error("run_atpg failed: " + resp.dump());
    const obs::Json& result = resp.at("result");

    obs::Json sig = obs::Json::object();
    sig["circuit"] = n.name();
    sig["num_detected"] = result.at("num_detected").as_u64();
    sig["num_untestable"] = result.at("num_untestable").as_u64();
    sig["num_aborted"] = result.at("num_aborted").as_u64();
    sig["num_undetermined"] = result.at("num_undetermined").as_u64();
    sig["tests"] = result.at("tests");
    out.signatures.push_back(sig.dump());
    out.shards += result.at("cluster").at("shards").as_u64();
    out.redispatched += result.at("cluster").at("redispatched").as_u64();
    out.reports.push_back(
        obs::RunReport::from_json(result.at("run_report")));
  }
  out.wall_seconds = wall.seconds();

  client.write(request_json(next_id++, "shutdown", obs::Json::object()));
  obs::Json shutdown_resp;
  if (!client.read(shutdown_resp) ||
      !shutdown_resp.at("result").at("drained").as_bool())
    throw std::runtime_error("cluster failed to drain");
  front.client->close();
  cluster_loop.join();
  for (std::thread& t : server_loops) t.join();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs defaults;
  defaults.scale = 0.25;
  const bench::BenchArgs args = bench::parse_args(argc, argv, defaults);
  bench::banner("cluster scaling — sharded ATPG over 1/2/4 workers",
                "the paper's easy-in-practice claim, fleet edition: if "
                "per-fault instances are easy, fault-partitioned workers "
                "should scale the wall clock without touching the result");

  // The two largest suite members: the shard queue is only interesting
  // when one circuit yields many shards.
  gen::SuiteOptions sopts;
  sopts.scale = args.scale;
  sopts.seed = args.seed;
  std::vector<net::Network> suite = gen::iscas85_like_suite(sopts);
  std::sort(suite.begin(), suite.end(),
            [](const net::Network& a, const net::Network& b) {
              return a.gate_count() > b.gate_count();
            });
  suite.resize(std::min<std::size_t>(2, suite.size()));
  for (const net::Network& n : suite)
    std::cout << "circuit " << n.name() << ": " << n.gate_count()
              << " gates, " << n.inputs().size() << " inputs\n";

  std::vector<ConfigResult> configs;
  for (const std::size_t workers : {std::size_t(1), std::size_t(2),
                                    std::size_t(4)}) {
    std::cout << "\nrunning " << workers << "-worker cluster...\n";
    configs.push_back(run_config(workers, suite, args.seed));
  }

  // Determinism gate: identical classification at every worker count.
  bool identical = true;
  for (const ConfigResult& c : configs) {
    for (std::size_t i = 0; i < c.signatures.size(); ++i) {
      if (c.signatures[i] != configs[0].signatures[i]) {
        identical = false;
        std::cerr << "MISMATCH: " << c.workers << "-worker result for "
                  << suite[i].name() << " differs from 1-worker result\n";
      }
    }
  }

  Table table({"workers", "wall s", "speedup", "shards", "redispatched"});
  const double base = configs[0].wall_seconds;
  for (const ConfigResult& c : configs)
    table.add_row({cell(c.workers), cell(c.wall_seconds, 3),
                   cell(base / std::max(c.wall_seconds, 1e-9), 2),
                   cell(c.shards), cell(c.redispatched)});
  table.print(std::cout);
  std::cout << "classification identical across worker counts: "
            << (identical ? "yes" : "NO") << "\n";
  if (!identical) return 1;

  obs::Json extra = obs::Json::object();
  obs::Json rows = obs::Json::array();
  std::vector<obs::RunReport> reports;
  for (const ConfigResult& c : configs) {
    obs::Json row = obs::Json::object();
    row["workers"] = static_cast<std::uint64_t>(c.workers);
    row["wall_seconds"] = c.wall_seconds;
    row["speedup"] = base / std::max(c.wall_seconds, 1e-9);
    row["shards"] = c.shards;
    row["redispatched"] = c.redispatched;
    rows.push_back(std::move(row));
    for (const obs::RunReport& r : c.reports) reports.push_back(r);
  }
  extra["configs"] = std::move(rows);
  extra["classification_identical"] = identical;
  if (!bench::emit_report("bench_cluster_scaling", args, reports,
                          std::move(extra)))
    return 1;
  return 0;
}
