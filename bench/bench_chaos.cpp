// bench_chaos — replayable failure-injection campaigns against the
// in-process service stack.
//
//   $ ./bench_chaos [--schedules=N|ci] [--seed=S] [--jobs=N]
//                   [--replay=K] [--json=FILE]
//
// Each "schedule" is one seeded experiment: a failpoint schedule string is
// drawn from a site catalog (queue admission, registry eviction and
// allocation, solver allocation, spurious budget expiry, worker throws and
// stalls, short reads/writes, torn frames), armed process-wide, and a
// client/server session is run over the byte duplex (a socketpair) — the
// retrying svc::Client on one side, a full Server on the other. The
// invariant asserted for every schedule is the service's headline
// guarantee: ZERO LOST RESPONSES — every submitted job reaches exactly one
// terminal outcome unless the schedule tore the session itself (framing
// corruption), in which case the tear must be observed cleanly (no hang,
// no crash) and unresolved jobs are tallied, never silently dropped.
//
// A second pass replays the first K timing-free schedules twice each with
// a fully serial workload and asserts bit-identical outcomes, client
// stats, and per-(domain,site) failpoint counters — the determinism
// contract that makes any chaos failure a one-line repro
// (`--schedules=...` + the printed seed). Timing-dependent sites (worker
// stalls under the watchdog) are excluded from the replay set because
// their outcome legitimately depends on wall-clock racing; they still run
// in the main campaign under the lossless invariant.
//
// Two cluster-shaped campaigns ride along: an UNSUPERVISED one (worker
// deaths permanently shrink the pool) and a SUPERVISED one where the
// coordinator respawns killed workers, heartbeat-probes wedged ones, and
// bisects poison shards down to in-process fallback — same zero-lost
// invariant throughout. A final deterministic KILL DRILL arms
// cluster.worker.eof=always (every worker dies after every reply, so no
// window can ever complete on a worker) and asserts the job still
// completes byte-identical to an undisturbed single-node run with every
// slot respawned at least once.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/structured.hpp"
#include "net/net_server.hpp"
#include "net/socket.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/decompose.hpp"
#include "obs/json.hpp"
#include "svc/client.hpp"
#include "svc/cluster.hpp"
#include "svc/server.hpp"
#include "svc/transport.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace {

using namespace cwatpg;

struct ChaosArgs {
  std::size_t schedules = 200;
  std::size_t replay = 8;  ///< schedules to run twice for determinism
  std::size_t jobs = 6;    ///< jobs per session
  std::uint64_t seed = 2026;
  std::string json;
};

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--schedules=N|ci] [--seed=S] [--jobs=N]"
               " [--replay=K] [--json=FILE]\n"
               "  --schedules=ci  curated CI-sized campaign (48 schedules)\n",
               argv0);
}

ChaosArgs parse_chaos_args(int argc, char** argv) {
  ChaosArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--schedules=ci") {
      args.schedules = 48;
      args.replay = 6;
      args.jobs = 4;
    } else if (arg.rfind("--schedules=", 0) == 0) {
      args.schedules = static_cast<std::size_t>(
          std::max(1L, std::atol(arg.c_str() + 12)));
    } else if (arg.rfind("--seed=", 0) == 0) {
      args.seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      args.jobs = static_cast<std::size_t>(
          std::max(1L, std::atol(arg.c_str() + 7)));
    } else if (arg.rfind("--replay=", 0) == 0) {
      args.replay = static_cast<std::size_t>(
          std::max(0L, std::atol(arg.c_str() + 9)));
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json = arg.substr(7);
    } else if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      print_usage(argv[0]);
      std::exit(2);
    }
  }
  return args;
}

// ---- schedule generation --------------------------------------------------

/// Draws one failpoint item. `timing_ok` gates the wall-clock-dependent
/// stall/watchdog sites; `tear_ok` gates the session-tearing framing
/// sites (excluded from the serial determinism replay so every replayed
/// session runs to completion); `byte_io_ok` gates the short-read/write
/// sites, whose HIT counts depend on byte-level cross-thread
/// interleaving (how much of a frame the peer has written when a refill
/// lands) — they stay in the lossless campaign but out of the
/// counter-exact replay.
std::string draw_item(Rng& rng, bool timing_ok, bool tear_ok,
                      bool byte_io_ok, bool* wants_watchdog) {
  const auto num = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::to_string(lo + rng.below(hi - lo + 1));
  };
  std::vector<std::string> pool = {
      "svc.queue.full=once",
      "svc.queue.full=nth:" + num(1, 4),
      "svc.queue.full=every:" + num(2, 4),
      "svc.queue.full=prob:0.25:" + num(1, 1u << 20),
      "svc.registry.evict=once",
      "svc.registry.evict=nth:" + num(1, 3),
      "svc.registry.alloc=once",
      "sat.solver.alloc=nth:" + num(1, 8),
      "sat.solver.alloc=prob:0.05:" + num(1, 1u << 20),
      "sat.solver.spurious_budget=prob:0.5:" + num(1, 1u << 20),
      "sat.solver.spurious_budget=always",
      "svc.server.execute.throw=once",
      "svc.server.execute.throw=nth:" + num(1, 4),
  };
  if (byte_io_ok) {
    pool.push_back("net.read.short=always@" + num(1, 7));
    pool.push_back("svc.proto.write.short=always@" + num(1, 7));
  }
  if (timing_ok) {
    pool.push_back("svc.server.execute.stall=once@30");
    pool.push_back("svc.server.execute.stall=nth:" + num(1, 3) + "@30");
  }
  if (tear_ok) {
    pool.push_back("svc.proto.read.corrupt_len=nth:" + num(4, 12));
    pool.push_back("svc.proto.read.eof=nth:" + num(4, 12));
  }
  const std::string item = pool[rng.below(pool.size())];
  if (item.rfind("svc.server.execute.stall", 0) == 0) *wants_watchdog = true;
  return item;
}

std::string make_schedule(Rng& rng, bool timing_ok, bool tear_ok,
                          bool byte_io_ok, bool* wants_watchdog) {
  const std::size_t items = 1 + rng.below(3);
  std::map<std::string, std::string> by_site;  // dedupe: one spec per site
  for (std::size_t i = 0; i < items; ++i) {
    const std::string item = draw_item(rng, timing_ok, tear_ok, byte_io_ok,
                                       wants_watchdog);
    const std::string site = item.substr(0, item.find('='));
    by_site.emplace(site, item);
  }
  std::string schedule;
  for (const auto& [site, item] : by_site) {
    (void)site;
    if (!schedule.empty()) schedule += ';';
    schedule += item;
  }
  return schedule;
}

// ---- one chaos session ----------------------------------------------------

struct Workload {
  std::string bench_text;
  std::size_t num_inputs = 0;
  std::size_t jobs = 6;
  bool serial = false;  ///< await each job before submitting the next
  bool watchdog = false;
};

struct SessionResult {
  /// request id -> "ok" / "error:<code>" / "unresolved" (torn only).
  std::map<std::uint64_t, std::string> outcomes;
  svc::ClientStats stats;
  bool torn = false;
  std::string counts_dump;  ///< per-(domain,site) hit/fire counters
  std::string violation;    ///< empty = all invariants held
};

std::string outcome_of(const obs::Json& resp) {
  const obs::Json* ok = resp.find("ok");
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) return "ok";
  const obs::Json* error = resp.find("error");
  if (error != nullptr && error->is_object()) {
    if (const obs::Json* code = error->find("code");
        code != nullptr && code->is_string())
      return "error:" + code->as_string();
  }
  return "error:unknown";
}

/// The shared invariant audit: a clean (untorn) session resolves every
/// job, and any session only reports known outcome codes.
void check_invariants(SessionResult& out) {
  static const std::set<std::string> kKnown = {
      "ok",           "error:overloaded", "error:cancelled",
      "error:internal", "error:bad_request", "error:not_found",
      "error:shutting_down", "unresolved"};
  for (const auto& [id, outcome] : out.outcomes) {
    if (!kKnown.count(outcome))
      out.violation = "job " + std::to_string(id) +
                      " has unknown outcome '" + outcome + "'";
    if (outcome == "unresolved" && !out.torn)
      out.violation =
          "job " + std::to_string(id) + " LOST in an untorn session";
  }
}

/// Drives the shared single-session workload — load, mixed run_atpg/fsim
/// jobs, awaits, shutdown — through an already-connected client,
/// recording per-job outcomes and the torn flag. Used by both the duplex
/// and the TCP campaigns, so their invariants are checked over the same
/// traffic shape.
void drive_session(svc::Client& client, const Workload& w,
                   SessionResult& out) {
  std::string key = "never-loaded";
  try {
    obs::Json params = obs::Json::object();
    params["name"] = "chaos";
    params["text"] = w.bench_text;
    const obs::Json resp = client.call("load_circuit", params);
    if (const obs::Json* ok = resp.find("ok");
        ok != nullptr && ok->is_bool() && ok->as_bool())
      key = resp.at("result").at("circuit").at("key").as_string();
  } catch (const std::exception&) {
    out.torn = true;
  }

  std::vector<std::uint64_t> ids;
  const auto await_into = [&](std::uint64_t id) {
    if (out.torn) {
      out.outcomes[id] = "unresolved";
      return;
    }
    const std::optional<obs::Json> resp = client.await(id);
    if (!resp.has_value()) {
      out.torn = true;
      out.outcomes[id] = "unresolved";
    } else {
      out.outcomes[id] = outcome_of(*resp);
    }
  };
  for (std::size_t j = 0; j < w.jobs && !out.torn; ++j) {
    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    std::uint64_t id = 0;
    if (j % 3 == 2) {
      obs::Json patterns = obs::Json::array();
      patterns.push_back(std::string(w.num_inputs, j % 2 ? '1' : '0'));
      params["patterns"] = std::move(patterns);
      id = client.submit("fsim", std::move(params));
    } else {
      params["seed"] = static_cast<std::uint64_t>(j) * 7919 + 13;
      // Alternate the random-pattern phase off so half the ATPG jobs
      // are forced through the SAT path, where the solver failpoints
      // live.
      params["random_blocks"] =
          static_cast<std::uint64_t>(j % 2 == 0 ? 0 : 2);
      id = client.submit("run_atpg", std::move(params));
    }
    ids.push_back(id);
    if (w.serial) await_into(id);
  }
  if (!w.serial)
    for (const std::uint64_t id : ids) await_into(id);

  if (!out.torn) {
    try {
      client.call("shutdown");
    } catch (const std::exception&) {
      out.torn = true;
    }
  }
  out.stats = client.stats();
}

SessionResult run_session(const std::string& schedule, const Workload& w) {
  SessionResult out;
  fp::Registry::instance().reset();
  {
    fp::ScheduleScope fps(schedule);

    svc::ServerOptions sopts;
    sopts.threads = 1;  // one worker: per-domain hit order is replayable
    sopts.queue_capacity = 8;
    if (w.watchdog) {
      sopts.watchdog_stall_seconds = 0.03;
      sopts.watchdog_detach_seconds = 0.05;
      sopts.watchdog_poll_seconds = 0.005;
    }
    svc::Server server(sopts);
    svc::DuplexPair pair = svc::make_byte_duplex();
    std::thread loop([&] { server.serve(*pair.server); });

    {
      svc::ClientOptions copts;
      copts.max_attempts = 4;
      copts.sleep_fn = [](double) {};  // chaos wants retries, not waits
      svc::Client client(*pair.client, copts);
      drive_session(client, w, out);
    }
    pair.client->close();
    loop.join();

    for (const auto& [site, c] : fp::Registry::instance().counts())
      out.counts_dump += site + "=" + std::to_string(c.hits) + "/" +
                         std::to_string(c.fires) + ";";
  }  // ScheduleScope resets the registry for the next session

  check_invariants(out);
  return out;
}

// ---- one TCP chaos session ------------------------------------------------

/// Draws a schedule over the TCP layer's injection sites. Short reads and
/// stalled writes are lossless (they slow bytes down, never drop them);
/// injected resets and accept failures tear the session, which the
/// invariant tolerates — it still demands the tear is CLEAN: the client
/// observes end-of-stream, every unresolved job is tallied, nothing hangs.
std::string make_net_schedule(Rng& rng) {
  const auto num = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::to_string(lo + rng.below(hi - lo + 1));
  };
  const std::vector<std::string> net_pool = {
      "net.read.short=always@" + num(1, 7),
      "net.read.short=every:" + num(2, 4) + "@" + num(1, 64),
      "net.write.stall=every:" + num(2, 5),
      "net.write.stall=nth:" + num(1, 6),
      "net.conn.reset=once",
      "net.conn.reset=nth:" + num(2, 40),
      "net.accept.fail=once",
  };
  const std::vector<std::string> worker_pool = {
      "sat.solver.alloc=nth:" + num(1, 8),
      "svc.queue.full=once",
      "svc.server.execute.throw=once",
  };
  std::map<std::string, std::string> by_site;
  const std::string first = net_pool[rng.below(net_pool.size())];
  by_site.emplace(first.substr(0, first.find('=')), first);
  const std::size_t extras = rng.below(3);
  for (std::size_t i = 0; i < extras; ++i) {
    const std::string item =
        rng.below(2) == 0 ? net_pool[rng.below(net_pool.size())]
                          : worker_pool[rng.below(worker_pool.size())];
    by_site.emplace(item.substr(0, item.find('=')), item);
  }
  std::string schedule;
  for (const auto& [site, item] : by_site) {
    (void)site;
    if (!schedule.empty()) schedule += ';';
    schedule += item;
  }
  return schedule;
}

/// The same workload and invariant as run_session, but over a real
/// loopback TCP connection through the netio::NetServer event loop — the
/// full cwatpg_serve --listen stack, injected at the socket layer.
SessionResult run_tcp_session(const std::string& schedule,
                              const Workload& w) {
  SessionResult out;
  fp::Registry::instance().reset();
  {
    fp::ScheduleScope fps(schedule);

    svc::ServerOptions sopts;
    sopts.threads = 1;
    sopts.queue_capacity = 8;
    svc::Server server(sopts);
    netio::NetServer net_server(server);
    std::thread loop([&] { net_server.run(); });

    {
      std::unique_ptr<netio::SocketTransport> transport;
      try {
        transport = std::make_unique<netio::SocketTransport>(
            netio::tcp_connect("127.0.0.1", net_server.port(), 5.0));
      } catch (const std::exception&) {
        out.torn = true;  // accept-side injection can kill the dial itself
      }
      if (transport) {
        // A wedged session must become a torn session, never a hung bench.
        transport->set_read_timeout(10.0);
        svc::ClientOptions copts;
        copts.max_attempts = 4;
        copts.sleep_fn = [](double) {};
        svc::Client client(*transport, copts);
        drive_session(client, w, out);
      }
    }
    net_server.stop();  // no-op when a clean shutdown already ended run()
    loop.join();

    for (const auto& [site, c] : fp::Registry::instance().counts())
      out.counts_dump += site + "=" + std::to_string(c.hits) + "/" +
                         std::to_string(c.fires) + ";";
  }

  check_invariants(out);
  return out;
}

// ---- one cluster chaos session --------------------------------------------

/// Draws a failpoint schedule for the sharded coordinator: always at
/// least one cluster.* site (dropped dispatches, worker deaths eating
/// un-acked replies, truncated shard ingests), optionally mixed with
/// worker-side solver/admission faults. Every site is count-driven, so
/// cluster schedules are wall-clock-free by construction.
std::string make_cluster_schedule(Rng& rng) {
  const auto num = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::to_string(lo + rng.below(hi - lo + 1));
  };
  const std::vector<std::string> cluster_pool = {
      "cluster.dispatch.drop=once",
      "cluster.dispatch.drop=nth:" + num(1, 4),
      "cluster.dispatch.drop=prob:0.2:" + num(1, 1u << 20),
      "cluster.worker.eof=once",
      "cluster.worker.eof=nth:" + num(1, 3),
      "cluster.merge.partial=once",
      "cluster.merge.partial=nth:" + num(1, 3),
      "cluster.merge.partial=prob:0.2:" + num(1, 1u << 20),
  };
  const std::vector<std::string> worker_pool = {
      "sat.solver.alloc=nth:" + num(1, 8),
      "sat.solver.spurious_budget=prob:0.5:" + num(1, 1u << 20),
      "svc.queue.full=once",
      "svc.server.execute.throw=once",
  };
  std::map<std::string, std::string> by_site;
  const std::string first = cluster_pool[rng.below(cluster_pool.size())];
  by_site.emplace(first.substr(0, first.find('=')), first);
  const std::size_t extras = rng.below(3);
  for (std::size_t i = 0; i < extras; ++i) {
    const std::string item =
        rng.below(2) == 0 ? cluster_pool[rng.below(cluster_pool.size())]
                          : worker_pool[rng.below(worker_pool.size())];
    by_site.emplace(item.substr(0, item.find('=')), item);
  }
  std::string schedule;
  for (const auto& [site, item] : by_site) {
    (void)site;
    if (!schedule.empty()) schedule += ';';
    schedule += item;
  }
  return schedule;
}

/// One chaos session against a 2-worker sharded cluster: same workload
/// and same zero-lost-jobs invariant as the single-server sessions —
/// every submitted job must reach exactly one terminal response no matter
/// which shards were dropped, truncated, or died with their worker.
SessionResult run_cluster_session(const std::string& schedule,
                                  const Workload& w) {
  SessionResult out;
  fp::Registry::instance().reset();
  {
    fp::ScheduleScope fps(schedule);

    std::vector<std::unique_ptr<svc::Server>> servers;
    std::vector<std::unique_ptr<svc::Transport>> server_sides;
    std::vector<std::thread> server_loops;
    std::vector<svc::Cluster::WorkerEndpoint> endpoints;
    for (std::size_t i = 0; i < 2; ++i) {
      svc::DuplexPair pair = svc::make_duplex();
      svc::ServerOptions sopts;
      sopts.threads = 1;
      sopts.queue_capacity = 8;
      servers.push_back(std::make_unique<svc::Server>(sopts));
      svc::Server* server = servers.back().get();
      svc::Transport* side = pair.server.get();
      server_sides.push_back(std::move(pair.server));
      server_loops.emplace_back([server, side] { server->serve(*side); });
      svc::Cluster::WorkerEndpoint e;
      e.transport = std::move(pair.client);
      e.name = "w" + std::to_string(i);
      endpoints.push_back(std::move(e));
    }

    svc::ClusterOptions copts;
    copts.shard_size = 3;  // several shards per job: real fan-out
    copts.client.max_attempts = 4;
    copts.client.sleep_fn = [](double) {};
    svc::Cluster cluster(std::move(endpoints), copts);
    svc::DuplexPair front = svc::make_duplex();
    std::thread cluster_loop([&] { cluster.serve(*front.server); });

    {
      svc::Client client(*front.client, copts.client);
      std::string key = "never-loaded";
      try {
        obs::Json params = obs::Json::object();
        params["name"] = "chaos";
        params["text"] = w.bench_text;
        const obs::Json resp = client.call("load_circuit", params);
        if (const obs::Json* ok = resp.find("ok");
            ok != nullptr && ok->is_bool() && ok->as_bool())
          key = resp.at("result").at("circuit").at("key").as_string();
      } catch (const std::exception&) {
        out.torn = true;
      }

      std::vector<std::uint64_t> ids;
      for (std::size_t j = 0; j < w.jobs && !out.torn; ++j) {
        obs::Json params = obs::Json::object();
        params["circuit"] = key;
        params["seed"] = static_cast<std::uint64_t>(j) * 7919 + 13;
        params["random_blocks"] =
            static_cast<std::uint64_t>(j % 2 == 0 ? 0 : 2);
        try {
          ids.push_back(client.submit("run_atpg", std::move(params)));
        } catch (const std::exception&) {
          out.torn = true;
        }
      }
      for (const std::uint64_t id : ids) {
        if (out.torn) {
          out.outcomes[id] = "unresolved";
          continue;
        }
        const std::optional<obs::Json> resp = client.await(id);
        if (!resp.has_value()) {
          out.torn = true;
          out.outcomes[id] = "unresolved";
        } else {
          out.outcomes[id] = outcome_of(*resp);
        }
      }
      if (!out.torn) {
        try {
          client.call("shutdown");
        } catch (const std::exception&) {
          out.torn = true;
        }
      }
      out.stats = client.stats();
    }
    front.client->close();
    cluster_loop.join();
    for (std::thread& t : server_loops) t.join();

    for (const auto& [site, c] : fp::Registry::instance().counts())
      out.counts_dump += site + "=" + std::to_string(c.hits) + "/" +
                         std::to_string(c.fires) + ";";
  }

  check_invariants(out);
  return out;
}

// ---- supervised-cluster campaign -------------------------------------------

/// The respawn pool for supervised sessions: in-process Servers created on
/// demand by the cluster's respawn factories, which run on the cluster's
/// worker threads — hence the mutex.
struct WorkerFarm {
  std::mutex mutex;
  std::vector<std::unique_ptr<svc::Server>> servers;
  std::vector<std::unique_ptr<svc::Transport>> sides;
  std::vector<std::thread> loops;

  std::unique_ptr<svc::Transport> boot() {
    svc::DuplexPair pair = svc::make_duplex();
    svc::ServerOptions sopts;
    sopts.threads = 1;
    sopts.queue_capacity = 8;
    std::lock_guard<std::mutex> lock(mutex);
    servers.push_back(std::make_unique<svc::Server>(sopts));
    svc::Server* server = servers.back().get();
    svc::Transport* side = pair.server.get();
    sides.push_back(std::move(pair.server));
    loops.emplace_back([server, side] { server->serve(*side); });
    return std::move(pair.client);
  }

  /// Safe once the cluster's serve() returned: its worker threads (the
  /// only factory callers) are joined by then.
  void join_all() {
    for (std::thread& t : loops) t.join();
  }
};

/// Cluster options for a supervised session: near-instant respawns and a
/// window that tolerates deliberate kill storms, plus fast heartbeats so
/// the wedged-worker site is reachable within a bench-sized session.
svc::ClusterOptions supervised_cluster_options() {
  svc::ClusterOptions copts;
  copts.shard_size = 3;
  copts.client.max_attempts = 4;
  copts.client.sleep_fn = [](double) {};
  copts.supervisor.backoff.base_seconds = 0.0005;
  copts.supervisor.backoff.max_seconds = 0.002;
  copts.supervisor.max_respawns = 200;
  copts.supervisor.respawn_window_seconds = 60.0;
  copts.supervisor.heartbeat_seconds = 0.005;
  copts.supervisor.heartbeat_timeout_seconds = 0.5;
  return copts;
}

/// Draws a schedule over the supervision sites — worker deaths (including
/// storms), wedged heartbeats, failing respawns, poison faults — mixed
/// with worker-side faults. respawn.fail stays bounded (once/nth) so the
/// pool keeps capacity; poison targets may fall past the fault count, in
/// which case the site simply never fires.
std::string make_supervised_schedule(Rng& rng) {
  const auto num = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::to_string(lo + rng.below(hi - lo + 1));
  };
  const std::vector<std::string> supervised_pool = {
      "cluster.worker.eof=once",
      "cluster.worker.eof=nth:" + num(1, 5),
      "cluster.worker.eof=every:" + num(2, 4),
      "cluster.worker.eof=prob:0.15:" + num(1, 1u << 20),
      "cluster.heartbeat.stall=once",
      "cluster.heartbeat.stall=nth:" + num(1, 8),
      "cluster.respawn.fail=once",
      "cluster.respawn.fail=nth:" + num(1, 3),
      "cluster.shard.poison=always@" + num(0, 17),
      "cluster.dispatch.drop=once",
      "cluster.merge.partial=nth:" + num(1, 3),
  };
  const std::vector<std::string> worker_pool = {
      "sat.solver.alloc=nth:" + num(1, 8),
      "svc.queue.full=once",
      "svc.server.execute.throw=once",
  };
  std::map<std::string, std::string> by_site;
  const std::string first =
      supervised_pool[rng.below(supervised_pool.size())];
  by_site.emplace(first.substr(0, first.find('=')), first);
  const std::size_t extras = rng.below(3);
  for (std::size_t i = 0; i < extras; ++i) {
    const std::string item =
        rng.below(2) == 0
            ? supervised_pool[rng.below(supervised_pool.size())]
            : worker_pool[rng.below(worker_pool.size())];
    by_site.emplace(item.substr(0, item.find('=')), item);
  }
  std::string schedule;
  for (const auto& [site, item] : by_site) {
    (void)site;
    if (!schedule.empty()) schedule += ';';
    schedule += item;
  }
  return schedule;
}

/// One chaos session against a SUPERVISED 2-worker cluster: every death
/// is respawned under backoff, wedged workers are heartbeat-detected, and
/// poison windows fall back to in-process execution. Invariant unchanged:
/// zero lost responses, every job one terminal.
SessionResult run_supervised_session(const std::string& schedule,
                                     const Workload& w,
                                     std::uint64_t* respawns,
                                     std::uint64_t* deaths) {
  SessionResult out;
  fp::Registry::instance().reset();
  {
    fp::ScheduleScope fps(schedule);

    WorkerFarm farm;
    std::vector<svc::Cluster::WorkerEndpoint> endpoints;
    for (std::size_t i = 0; i < 2; ++i) {
      svc::Cluster::WorkerEndpoint e;
      e.transport = farm.boot();
      e.name = "w" + std::to_string(i);
      e.respawn = [&farm]() {
        svc::Cluster::WorkerEndpoint::Respawned r;
        r.transport = farm.boot();
        return r;
      };
      endpoints.push_back(std::move(e));
    }

    const svc::ClusterOptions copts = supervised_cluster_options();
    svc::Cluster cluster(std::move(endpoints), copts);
    svc::DuplexPair front = svc::make_duplex();
    std::thread cluster_loop([&] { cluster.serve(*front.server); });

    {
      svc::Client client(*front.client, copts.client);
      drive_session(client, w, out);
    }
    front.client->close();
    cluster_loop.join();
    const svc::ClusterStats stats = cluster.stats();
    *respawns += stats.respawns;
    *deaths += stats.worker_deaths;
    farm.join_all();

    for (const auto& [site, c] : fp::Registry::instance().counts())
      out.counts_dump += site + "=" + std::to_string(c.hits) + "/" +
                         std::to_string(c.fires) + ";";
  }

  check_invariants(out);
  return out;
}

// ---- the deterministic kill drill ------------------------------------------

/// Per-fault records with the one legitimately nondeterministic field
/// (per-solve wall seconds) zeroed, dumpable for byte comparison.
std::string normalized_raw_dump(const obs::Json& result) {
  obs::Json raw = obs::Json::array();
  for (const obs::Json& record : result.at("raw").items()) {
    obs::Json r = record;
    r["ss"] = 0.0;
    raw.push_back(std::move(r));
  }
  return raw.dump();
}

/// run_atpg params pinned to the full pipeline (random phase + SAT aborts
/// + escalation), matching the unit suite's hardest merge case.
obs::Json drill_params(const std::string& key) {
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  params["seed"] = std::uint64_t(7);
  params["random_blocks"] = std::uint64_t(1);
  params["max_conflicts"] = std::uint64_t(6);
  params["escalation_rounds"] = std::uint64_t(2);
  params["raw_outcomes"] = true;
  return params;
}

struct KillDrill {
  std::uint64_t faults = 0;
  std::uint64_t inprocess_faults = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t respawns = 0;
  std::uint64_t min_restarts = 0;
  bool identical = false;
  std::string violation;  ///< empty = the drill held
};

/// Every worker is killed after every shard reply — no window can EVER
/// complete on a worker — while the job must still complete with zero
/// lost faults, byte-identical to an undisturbed single-node run, and
/// every slot must have been killed and respawned at least once.
KillDrill run_kill_drill(const Workload& w) {
  KillDrill drill;

  // The undisturbed single-node reference.
  std::string reference;
  {
    fp::Registry::instance().reset();
    svc::ServerOptions sopts;
    sopts.threads = 1;
    svc::Server server(sopts);
    svc::DuplexPair pair = svc::make_byte_duplex();
    std::thread loop([&] { server.serve(*pair.server); });
    {
      svc::Client client(*pair.client, {});
      obs::Json load = obs::Json::object();
      load["name"] = "drill";
      load["text"] = w.bench_text;
      const obs::Json loaded = client.call("load_circuit", std::move(load));
      const std::string key =
          loaded.at("result").at("circuit").at("key").as_string();
      const obs::Json resp = client.call("run_atpg", drill_params(key));
      if (resp.at("ok").as_bool()) {
        drill.faults = resp.at("result").at("faults").as_u64();
        reference = normalized_raw_dump(resp.at("result"));
      } else {
        drill.violation = "reference run failed: " + resp.dump();
      }
      client.call("shutdown");
    }
    pair.client->close();
    loop.join();
  }
  if (!drill.violation.empty()) return drill;

  fp::Registry::instance().reset();
  {
    fp::ScheduleScope fps("cluster.worker.eof=always");

    WorkerFarm farm;
    std::vector<svc::Cluster::WorkerEndpoint> endpoints;
    for (std::size_t i = 0; i < 2; ++i) {
      svc::Cluster::WorkerEndpoint e;
      e.transport = farm.boot();
      e.name = "w" + std::to_string(i);
      e.respawn = [&farm]() {
        svc::Cluster::WorkerEndpoint::Respawned r;
        r.transport = farm.boot();
        return r;
      };
      endpoints.push_back(std::move(e));
    }
    svc::ClusterOptions copts = supervised_cluster_options();
    copts.shard_size = 2;  // many windows: many kills, every slot dies
    copts.supervisor.heartbeat_seconds = 0.0;  // deaths only via the kills
    svc::Cluster cluster(std::move(endpoints), copts);
    svc::DuplexPair front = svc::make_duplex();
    std::thread cluster_loop([&] { cluster.serve(*front.server); });

    {
      svc::Client client(*front.client, copts.client);
      try {
        obs::Json load = obs::Json::object();
        load["name"] = "drill";
        load["text"] = w.bench_text;
        const obs::Json loaded =
            client.call("load_circuit", std::move(load));
        const std::string key =
            loaded.at("result").at("circuit").at("key").as_string();
        const obs::Json resp = client.call("run_atpg", drill_params(key));
        if (!resp.at("ok").as_bool()) {
          drill.violation = "drill job failed: " + resp.dump();
        } else {
          const obs::Json& result = resp.at("result");
          drill.identical = normalized_raw_dump(result) == reference &&
                            result.at("faults").as_u64() == drill.faults;
          drill.inprocess_faults =
              result.at("cluster").at("inprocess_faults").as_u64();
          // Respawns complete asynchronously after the terminal: poll
          // status until every slot reports a restart.
          for (int i = 0; i < 500; ++i) {
            const obs::Json status =
                client.call("status").at("result");
            drill.min_restarts = ~std::uint64_t(0);
            for (const obs::Json& ws :
                 status.at("worker_pool").items())
              drill.min_restarts = std::min(
                  drill.min_restarts, ws.at("restarts").as_u64());
            if (drill.min_restarts >= 1) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }
        client.call("shutdown");
      } catch (const std::exception& e) {
        drill.violation = std::string("drill session torn: ") + e.what();
      }
    }
    front.client->close();
    cluster_loop.join();
    const svc::ClusterStats stats = cluster.stats();
    drill.worker_deaths = stats.worker_deaths;
    drill.respawns = stats.respawns;
    farm.join_all();
  }

  if (drill.violation.empty()) {
    if (!drill.identical)
      drill.violation = "drill result diverged from the single-node run";
    else if (drill.inprocess_faults != drill.faults)
      drill.violation = "expected every fault in-process, got " +
                        std::to_string(drill.inprocess_faults) + "/" +
                        std::to_string(drill.faults);
    else if (drill.worker_deaths < 2)
      drill.violation = "expected every worker killed at least once";
    else if (drill.min_restarts < 1)
      drill.violation = "a slot was never respawned";
  }
  return drill;
}

std::string summary_of(const SessionResult& r) {
  std::string s;
  for (const auto& [id, outcome] : r.outcomes)
    s += std::to_string(id) + ":" + outcome + ";";
  s += "|sent=" + std::to_string(r.stats.requests_sent);
  s += ",resp=" + std::to_string(r.stats.responses);
  s += ",over=" + std::to_string(r.stats.overloaded);
  s += ",retry=" + std::to_string(r.stats.retries);
  s += ",dup=" + std::to_string(r.stats.duplicate_rejects);
  s += ",serr=" + std::to_string(r.stats.session_errors);
  s += ",torn=" + std::to_string(r.torn ? 1 : 0);
  s += "|" + r.counts_dump;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const ChaosArgs args = parse_chaos_args(argc, argv);
  if (!fp::kEnabled) {
    std::printf("bench_chaos: built with CWATPG_FAILPOINTS=OFF — nothing "
                "to inject, reporting success\n");
    return 0;
  }

  Workload base;
  {
    const net::Network n = net::decompose(gen::comparator(3));
    std::ostringstream text;
    net::write_bench(text, n);
    base.bench_text = text.str();
    base.num_inputs = n.inputs().size();
  }
  base.jobs = args.jobs;

  std::printf("=== bench_chaos: %zu schedules, seed %llu, %zu jobs/session "
              "===\n",
              args.schedules, static_cast<unsigned long long>(args.seed),
              args.jobs);

  std::size_t failures = 0, torn_sessions = 0, unresolved_jobs = 0;
  std::map<std::string, std::size_t> outcome_histogram;

  for (std::size_t s = 0; s < args.schedules; ++s) {
    Rng rng(split_seed(args.seed, s));
    Workload w = base;
    w.watchdog = false;
    const bool timing_ok = s % 4 == 1;
    const bool tear_ok = s % 5 == 3;
    const std::string schedule = make_schedule(
        rng, timing_ok, tear_ok, /*byte_io_ok=*/true, &w.watchdog);
    const SessionResult r = run_session(schedule, w);
    torn_sessions += r.torn ? 1 : 0;
    for (const auto& [id, outcome] : r.outcomes) {
      (void)id;
      ++outcome_histogram[outcome];
      unresolved_jobs += outcome == "unresolved" ? 1 : 0;
    }
    if (!r.violation.empty()) {
      ++failures;
      std::printf("FAIL schedule %zu [%s]: %s\n", s, schedule.c_str(),
                  r.violation.c_str());
    }
  }

  // Cluster campaign: the same lossless invariant with the sharded
  // coordinator in the middle — dropped dispatches, workers dying with
  // un-acked shards, truncated shard replies. A lost or double-counted
  // shard would surface here as an unresolved job or an unknown outcome.
  const std::size_t cluster_schedules =
      std::max<std::size_t>(8, args.schedules / 4);
  std::size_t cluster_torn = 0, cluster_unresolved = 0;
  for (std::size_t s = 0; s < cluster_schedules; ++s) {
    Rng rng(split_seed(args.seed ^ 0xc105'7e12u, s));
    Workload w = base;
    const std::string schedule = make_cluster_schedule(rng);
    const SessionResult r = run_cluster_session(schedule, w);
    cluster_torn += r.torn ? 1 : 0;
    for (const auto& [id, outcome] : r.outcomes) {
      (void)id;
      ++outcome_histogram[outcome];
      cluster_unresolved += outcome == "unresolved" ? 1 : 0;
    }
    if (!r.violation.empty()) {
      ++failures;
      std::printf("FAIL cluster schedule %zu [%s]: %s\n", s,
                  schedule.c_str(), r.violation.c_str());
    }
  }

  // TCP campaign: the same lossless-or-cleanly-torn invariant with the
  // netio::NetServer event loop and a real loopback socket in the middle —
  // short reads, stalled flushes, injected resets and accept failures at
  // the net.* sites. A response lost in the outbox/flush path, or a tear
  // that hangs instead of surfacing as end-of-stream, fails here.
  const std::size_t tcp_schedules =
      std::max<std::size_t>(8, args.schedules / 4);
  std::size_t tcp_torn = 0, tcp_unresolved = 0;
  for (std::size_t s = 0; s < tcp_schedules; ++s) {
    Rng rng(split_seed(args.seed ^ 0x7c9a11e7u, s));
    Workload w = base;
    const std::string schedule = make_net_schedule(rng);
    const SessionResult r = run_tcp_session(schedule, w);
    tcp_torn += r.torn ? 1 : 0;
    for (const auto& [id, outcome] : r.outcomes) {
      (void)id;
      ++outcome_histogram[outcome];
      tcp_unresolved += outcome == "unresolved" ? 1 : 0;
    }
    if (!r.violation.empty()) {
      ++failures;
      std::printf("FAIL net schedule %zu [%s]: %s\n", s, schedule.c_str(),
                  r.violation.c_str());
    }
  }

  // Supervised campaign: the same zero-lost invariant while the
  // supervisor is respawning killed workers, heartbeat-probing wedged
  // ones, and quarantining poison shards into in-process fallback. A
  // respawn that loses a queued window, a heartbeat that misfires on a
  // healthy worker, or a poison window that double-counts faults would
  // surface here as an unresolved job or an unknown outcome.
  const std::size_t supervised_schedules =
      std::max<std::size_t>(8, args.schedules / 4);
  std::size_t supervised_torn = 0, supervised_unresolved = 0;
  std::uint64_t supervised_respawns = 0, supervised_deaths = 0;
  for (std::size_t s = 0; s < supervised_schedules; ++s) {
    Rng rng(split_seed(args.seed ^ 0x5afe'ba5eu, s));
    Workload w = base;
    const std::string schedule = make_supervised_schedule(rng);
    const SessionResult r = run_supervised_session(
        schedule, w, &supervised_respawns, &supervised_deaths);
    supervised_torn += r.torn ? 1 : 0;
    for (const auto& [id, outcome] : r.outcomes) {
      (void)id;
      ++outcome_histogram[outcome];
      supervised_unresolved += outcome == "unresolved" ? 1 : 0;
    }
    if (!r.violation.empty()) {
      ++failures;
      std::printf("FAIL supervised schedule %zu [%s]: %s\n", s,
                  schedule.c_str(), r.violation.c_str());
    }
  }

  // The kill drill: every worker dies after every reply, the job must
  // still come back byte-identical to an undisturbed single-node run.
  const KillDrill drill = run_kill_drill(base);
  if (!drill.violation.empty()) {
    ++failures;
    std::printf("FAIL kill drill: %s\n", drill.violation.c_str());
  }

  // Determinism replay: same schedule + serial workload, twice, compared
  // byte for byte.
  std::size_t replay_mismatches = 0;
  for (std::size_t k = 0; k < args.replay; ++k) {
    Rng rng_a(split_seed(args.seed ^ 0x9e3779b9, k));
    Rng rng_b = rng_a;
    Workload w = base;
    w.serial = true;
    bool unused = false;
    const std::string schedule_a =
        make_schedule(rng_a, /*timing_ok=*/false, /*tear_ok=*/false,
                      /*byte_io_ok=*/false, &unused);
    const std::string schedule_b =
        make_schedule(rng_b, false, false, false, &unused);
    const std::string a = summary_of(run_session(schedule_a, w));
    const std::string b = summary_of(run_session(schedule_b, w));
    if (schedule_a != schedule_b || a != b) {
      ++replay_mismatches;
      std::printf("REPLAY MISMATCH %zu [%s]\n  a: %s\n  b: %s\n", k,
                  schedule_a.c_str(), a.c_str(), b.c_str());
    }
  }

  std::printf("\nsessions: %zu  torn: %zu  unresolved(torn-only): %zu\n",
              args.schedules, torn_sessions, unresolved_jobs);
  std::printf("cluster sessions: %zu  torn: %zu  unresolved(torn-only): "
              "%zu\n",
              cluster_schedules, cluster_torn, cluster_unresolved);
  std::printf("tcp sessions: %zu  torn: %zu  unresolved(torn-only): %zu\n",
              tcp_schedules, tcp_torn, tcp_unresolved);
  std::printf("supervised sessions: %zu  torn: %zu  unresolved(torn-only): "
              "%zu  respawns: %llu  deaths: %llu\n",
              supervised_schedules, supervised_torn, supervised_unresolved,
              static_cast<unsigned long long>(supervised_respawns),
              static_cast<unsigned long long>(supervised_deaths));
  std::printf("kill drill: identical=%s  deaths=%llu  respawns=%llu  "
              "in-process=%llu/%llu\n",
              drill.identical ? "yes" : "NO",
              static_cast<unsigned long long>(drill.worker_deaths),
              static_cast<unsigned long long>(drill.respawns),
              static_cast<unsigned long long>(drill.inprocess_faults),
              static_cast<unsigned long long>(drill.faults));
  for (const auto& [outcome, count] : outcome_histogram)
    std::printf("  %-22s %zu\n", outcome.c_str(), count);
  std::printf("determinism replays: %zu  mismatches: %zu\n", args.replay,
              replay_mismatches);

  if (!args.json.empty()) {
    obs::Json j = obs::Json::object();
    j["schema"] = "cwatpg.chaos_report/1";
    j["schedules"] = static_cast<std::uint64_t>(args.schedules);
    j["seed"] = args.seed;
    j["torn_sessions"] = static_cast<std::uint64_t>(torn_sessions);
    j["unresolved_jobs"] = static_cast<std::uint64_t>(unresolved_jobs);
    j["cluster_sessions"] = static_cast<std::uint64_t>(cluster_schedules);
    j["cluster_torn_sessions"] = static_cast<std::uint64_t>(cluster_torn);
    j["cluster_unresolved_jobs"] =
        static_cast<std::uint64_t>(cluster_unresolved);
    j["tcp_sessions"] = static_cast<std::uint64_t>(tcp_schedules);
    j["tcp_torn_sessions"] = static_cast<std::uint64_t>(tcp_torn);
    j["tcp_unresolved_jobs"] = static_cast<std::uint64_t>(tcp_unresolved);
    j["supervised_sessions"] =
        static_cast<std::uint64_t>(supervised_schedules);
    j["supervised_torn_sessions"] =
        static_cast<std::uint64_t>(supervised_torn);
    j["supervised_unresolved_jobs"] =
        static_cast<std::uint64_t>(supervised_unresolved);
    j["supervised_respawns"] = supervised_respawns;
    j["supervised_worker_deaths"] = supervised_deaths;
    obs::Json dj = obs::Json::object();
    dj["identical"] = drill.identical;
    dj["faults"] = drill.faults;
    dj["inprocess_faults"] = drill.inprocess_faults;
    dj["worker_deaths"] = drill.worker_deaths;
    dj["respawns"] = drill.respawns;
    dj["min_restarts"] = drill.min_restarts;
    dj["lost_jobs"] = std::uint64_t(drill.violation.empty() ? 0 : 1);
    j["kill_drill"] = std::move(dj);
    j["replays"] = static_cast<std::uint64_t>(args.replay);
    j["replay_mismatches"] =
        static_cast<std::uint64_t>(replay_mismatches);
    j["invariant_failures"] = static_cast<std::uint64_t>(failures);
    obs::Json hist = obs::Json::object();
    for (const auto& [outcome, count] : outcome_histogram)
      hist[outcome] = static_cast<std::uint64_t>(count);
    j["outcomes"] = std::move(hist);
    std::ofstream out(args.json);
    out << j.dump(2) << "\n";
  }

  if (failures > 0 || replay_mismatches > 0) {
    std::printf("bench_chaos: FAILED (%zu invariant failures, %zu replay "
                "mismatches)\n",
                failures, replay_mismatches);
    return 1;
  }
  std::printf("bench_chaos: all invariants held — zero lost responses\n");
  return 0;
}
