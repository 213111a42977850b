// cwatpg_cluster — the sharded ATPG coordinator over stdin/stdout or TCP.
//
//   $ ./cwatpg_cluster [--workers=N] [--worker-cmd="CMD ARGS..."]
//                      [--shard-size=N] [--shard-deadline=S]
//                      [--default-deadline=S] [--registry-mb=N]
//                      [--connect=HOST:PORT ...] [--listen=HOST:PORT]
//
// Speaks cwatpg.rpc/1 frames on stdin/stdout, exactly like cwatpg_serve —
// a drop-in front end — but fans per-fault `run_atpg` jobs out across N
// spawned worker daemons (child processes over stdio pipes) and merges
// their shard replies into one response that is classification-identical
// to a single-node run. A worker killed mid-job forfeits its un-acked
// shard to a survivor AND is respawned under backoff (a fresh child for
// spawned workers, a re-dial for remote ones) unless it crash-loops past
// --max-respawns inside the supervision window, in which case the slot is
// quarantined. `status` reports per-worker pids, liveness, generation,
// restarts and the reaped exit of the previous generation, which is what
// scripts/service_smoke.py --cluster uses for its supervised kill drill.
// Worker stderr is inherited, so the whole fleet's diagnostics land on
// the coordinator's stderr.
//
// --connect=HOST:PORT (repeatable) attaches REMOTE workers over TCP —
// each address is a `cwatpg_serve --listen` daemon, possibly on another
// machine. Remote workers mix freely with locally spawned ones; when any
// --connect is given and --workers is not, no local workers are spawned.
// A remote worker that dies (kill -9 included) surfaces as socket EOF and
// takes the same shard-failover path as a dead child process.
// --listen=HOST:PORT serves the coordinator's OWN front end to concurrent
// TCP clients, one session each, through the same netio::NetServer as
// `cwatpg_serve --listen` (SIGINT/SIGTERM drain it); the coordinator is a
// svc::Server whose job executor shards, so sessions, admission, cancel
// and drain follow the daemon's rules.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/net_server.hpp"
#include "net/socket.hpp"
#include "svc/cluster.hpp"
#include "svc/spawn.hpp"
#include "svc/transport.hpp"

#include <unistd.h>

namespace {

void print_usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0
      << " [--workers=N] [--worker-cmd=\"CMD ARGS...\"] [--shard-size=N]"
         " [--shard-deadline=S] [--default-deadline=S] [--registry-mb=N]"
         " [--respawn-backoff=S] [--max-respawns=N] [--heartbeat=S]"
         " [--connect=HOST:PORT ...] [--listen=HOST:PORT]\n"
         "  --workers=N           worker daemons to spawn. default 2"
         " (0 when --connect is used)\n"
         "  --worker-cmd=CMD      worker command line (whitespace-split);"
         " default: cwatpg_serve --threads=2 next to this binary\n"
         "  --shard-size=N        collapsed fault ids per shard. default"
         " 512\n"
         "  --shard-deadline=S    per-shard worker deadline; a wedged"
         " worker self-reports instead of holding its shard. 0 = none."
         " default 0\n"
         "  --default-deadline=S  job deadline when the request carries"
         " none; 0 = unlimited. default 0\n"
         "  --registry-mb=N       coordinator circuit cache budget."
         " default 256\n"
         "  --respawn-backoff=S   base delay before respawning a dead"
         " worker (doubles per consecutive failure, capped). default"
         " 0.05\n"
         "  --max-respawns=N      respawn events tolerated per slot inside"
         " a 30 s window before the slot is quarantined as a crash loop;"
         " 0 = never respawn. default 5\n"
         "  --heartbeat=S         probe idle workers with a bounded"
         " `status` every S seconds; a non-answer is treated as death."
         " 0 = off. default 0\n"
         "  --connect=HOST:PORT   attach a remote TCP worker (repeatable;"
         " a `cwatpg_serve --listen` daemon; dialed with bounded retries"
         " so a still-booting worker is tolerated)\n"
         "  --listen=HOST:PORT    serve concurrent TCP clients, one session"
         " each, instead of stdio; PORT 0 = ephemeral (bound port on"
         " stderr)\n";
}

/// Default worker command: the cwatpg_serve that shipped alongside this
/// binary, falling back to PATH lookup when /proc introspection fails.
std::string default_worker_cmd() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    std::string self(buf, static_cast<std::size_t>(n));
    const std::size_t slash = self.rfind('/');
    if (slash != std::string::npos)
      return self.substr(0, slash + 1) + "cwatpg_serve --threads=2";
  }
  return "cwatpg_serve --threads=2";
}

std::vector<std::string> split_command(const std::string& cmd) {
  std::vector<std::string> argv;
  std::istringstream in(cmd);
  std::string tok;
  while (in >> tok) argv.push_back(tok);
  return argv;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cwatpg;

  // A worker dying mid-write must surface as EPIPE on our pipe fds — the
  // failover signal — not as a process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  std::size_t workers = 2;
  bool workers_set = false;
  std::string worker_cmd;
  std::vector<std::string> connect_specs;
  std::string listen_spec;
  svc::ClusterOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      workers = static_cast<std::size_t>(
          std::max(0L, std::atol(arg.c_str() + 10)));
      workers_set = true;
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect_specs.push_back(arg.substr(10));
    } else if (arg.rfind("--listen=", 0) == 0) {
      listen_spec = arg.substr(9);
    } else if (arg.rfind("--worker-cmd=", 0) == 0) {
      worker_cmd = arg.substr(13);
    } else if (arg.rfind("--shard-size=", 0) == 0) {
      options.shard_size = static_cast<std::size_t>(
          std::max(1L, std::atol(arg.c_str() + 13)));
    } else if (arg.rfind("--shard-deadline=", 0) == 0) {
      options.shard_deadline_seconds = std::atof(arg.c_str() + 17);
    } else if (arg.rfind("--default-deadline=", 0) == 0) {
      options.default_deadline_seconds = std::atof(arg.c_str() + 19);
    } else if (arg.rfind("--registry-mb=", 0) == 0) {
      options.registry_bytes =
          static_cast<std::size_t>(std::max(1L, std::atol(arg.c_str() + 14)))
          << 20;
    } else if (arg.rfind("--respawn-backoff=", 0) == 0) {
      options.supervisor.backoff.base_seconds =
          std::max(0.0, std::atof(arg.c_str() + 18));
    } else if (arg.rfind("--max-respawns=", 0) == 0) {
      options.supervisor.max_respawns = static_cast<std::size_t>(
          std::max(0L, std::atol(arg.c_str() + 15)));
    } else if (arg.rfind("--heartbeat=", 0) == 0) {
      options.supervisor.heartbeat_seconds =
          std::max(0.0, std::atof(arg.c_str() + 12));
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout, argv[0]);
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      print_usage(std::cerr, argv[0]);
      return 2;
    }
  }
  if (worker_cmd.empty()) worker_cmd = default_worker_cmd();
  const std::vector<std::string> worker_argv = split_command(worker_cmd);
  if (worker_argv.empty()) {
    std::cerr << "cwatpg_cluster: --worker-cmd is empty\n";
    return 2;
  }
  // Remote workers displace the local default: `--connect` alone means
  // "this coordinator owns no processes"; mixing needs an explicit
  // --workers=N.
  if (!connect_specs.empty() && !workers_set) workers = 0;
  if (workers + connect_specs.size() == 0) {
    std::cerr << "cwatpg_cluster: no workers (--workers=0 and no"
                 " --connect)\n";
    return 2;
  }

  std::vector<std::int64_t> pids;
  int exit_code = 0;
  try {
    std::vector<svc::Cluster::WorkerEndpoint> endpoints;
    endpoints.reserve(workers + connect_specs.size());
    for (std::size_t i = 0; i < workers; ++i) {
      svc::ChildProcess child = svc::spawn_child(worker_argv);
      pids.push_back(child.pid);
      svc::Cluster::WorkerEndpoint e;
      e.transport = std::move(child.transport);
      e.name = std::string("w").append(std::to_string(i));
      e.pid = child.pid;
      // The respawn factory the supervisor calls (from the slot's own
      // worker thread, outside the coordinator lock) after this child
      // dies: a fresh fork/exec of the same command line. Throws =
      // failed attempt, retried under the supervisor's backoff.
      e.respawn = [worker_argv]() {
        svc::ChildProcess next = svc::spawn_child(worker_argv);
        svc::Cluster::WorkerEndpoint::Respawned r;
        r.transport = std::move(next.transport);
        r.pid = next.pid;
        return r;
      };
      endpoints.push_back(std::move(e));
    }
    // Boot dialing tolerates a worker daemon that is still starting up:
    // bounded retry with the shared backoff schedule rather than one
    // all-or-nothing connect.
    svc::RetryOptions dial_retry;
    dial_retry.max_attempts = 10;
    dial_retry.backoff.base_seconds = 0.05;
    dial_retry.backoff.max_seconds = 1.0;
    for (const std::string& spec : connect_specs) {
      std::string host;
      std::uint16_t port = 0;
      netio::parse_host_port(spec, &host, &port);
      // A remote worker is just a Transport; pid 0 tells status/failover
      // "no process to signal or reap here". kill -9 on the far side
      // reaches us as socket EOF — the same worker-death signal a dead
      // child's pipe gives, so shard failover is untouched.
      svc::Cluster::WorkerEndpoint e;
      e.transport = std::make_unique<netio::SocketTransport>(
          netio::tcp_connect_retry(host, port, 10.0, dial_retry));
      e.name = "tcp:" + host + ":" + std::to_string(port);
      e.pid = 0;
      // Respawn for a remote slot is a re-dial of the same address; one
      // connect per attempt — the supervisor's backoff loop provides the
      // retries, so a daemon that stays down converges to quarantine.
      e.respawn = [host, port]() {
        svc::Cluster::WorkerEndpoint::Respawned r;
        r.transport = std::make_unique<netio::SocketTransport>(
            netio::tcp_connect(host, port, 10.0));
        r.pid = 0;
        return r;
      };
      endpoints.push_back(std::move(e));
    }
    std::cerr << "cwatpg_cluster: " << workers << " local workers";
    if (workers > 0) std::cerr << " (`" << worker_cmd << "`)";
    if (!connect_specs.empty())
      std::cerr << " + " << connect_specs.size() << " remote";
    std::cerr << ", shard size " << options.shard_size;

    svc::Cluster cluster(std::move(endpoints), options);
    // From here the cluster owns worker lifecycles: it reaps a child the
    // moment its pipe EOFs (so kill -9 never leaves a zombie), respawns
    // replacements with pids of its own, and reaps the final generation
    // at drain. Reaping the startup pids again here would race pid
    // reuse, so the list only backstops a failure *before* this point.
    pids.clear();
    if (!listen_spec.empty()) {
      netio::NetServerOptions net_options;
      netio::parse_host_port(listen_spec, &net_options.host,
                             &net_options.port);
      netio::NetServer net_server(cluster.server(), net_options);
      // Same parseable banner shape as cwatpg_serve --listen.
      std::cerr << " — listening on " << net_options.host << ":"
                << net_server.port() << " (max "
                << net_options.max_connections << " connections)\n";
      netio::run_until_signalled(net_server);
    } else {
      std::cerr << " — serving cwatpg.rpc/1 on stdin/stdout\n";
      svc::FdTransport transport(STDIN_FILENO, STDOUT_FILENO);
      cluster.serve(transport);
    }
    std::cerr << "cwatpg_cluster: drained, exiting\n";
  } catch (const std::exception& e) {
    std::cerr << "cwatpg_cluster: fatal: " << e.what() << "\n";
    exit_code = 1;
  }
  // Non-empty only when startup failed before the Cluster took ownership
  // (e.g. a --connect dial that never succeeded after local children were
  // already spawned): force-kill and reap those orphans.
  for (const std::int64_t pid : pids) svc::reap_child(pid, true);
  return exit_code;
}
