// cwatpg_serve — the ATPG daemon over stdin/stdout or TCP.
//
//   $ ./cwatpg_serve [--threads=N] [--queue-capacity=N] [--registry-mb=N]
//                    [--default-deadline=SECONDS]
//                    [--listen=HOST:PORT | --connect=HOST:PORT]
//
// Speaks cwatpg.rpc/1 frames (`<len>\n<json>`) on stdin/stdout: the same
// Server the in-memory tests drive, bound to an FdTransport on fds 0 and
// 1. Run it under any process supervisor and multiplex clients in front of
// it, or drive it directly from a script — scripts/service_smoke.py shows
// the five-line Python client. Diagnostics go to stderr; stdout carries
// only frames.
//
// --listen=HOST:PORT serves N concurrent TCP clients through the
// netio::NetServer event loop instead (PORT 0 picks an ephemeral port; the
// stderr banner reports the bound one). --connect=HOST:PORT dials OUT and
// serves that single connection — how a remote worker attaches itself to
// a listening coordinator across machines.
//
// --threads=0 (the default) means "auto": one job slot per hardware
// thread, via the shared ThreadPool::resolve_thread_count helper.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include <unistd.h>

#include "net/net_server.hpp"
#include "net/socket.hpp"
#include "svc/server.hpp"
#include "svc/transport.hpp"
#include "util/threadpool.hpp"

namespace {

void print_usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0
      << " [--threads=N] [--queue-capacity=N] [--registry-mb=N]"
         " [--default-deadline=SECONDS] [--journal=PATH]"
         " [--watchdog-stall=S] [--watchdog-detach=S] [--watchdog-poll=S]"
         " [--listen=HOST:PORT [--max-connections=N] [--idle-timeout=S]]"
         " [--connect=HOST:PORT]\n"
         "  --threads=N           job workers; 0 = auto (hardware"
         " concurrency). default 0\n"
         "  --queue-capacity=N    admission limit; full queue answers"
         " `overloaded`. default 64\n"
         "  --registry-mb=N       circuit cache byte budget (LRU above"
         " it). default 256\n"
         "  --default-deadline=S  deadline for jobs that carry none;"
         " 0 = unlimited. default 0\n"
         "  --journal=PATH        crash-recovery journal (cwatpg.journal/1);"
         " replayed on start, prior in-flight jobs reported as interrupted."
         " default off\n"
         "  --watchdog-stall=S    cancel a running job after S seconds"
         " without Budget progress; 0 = watchdog off. default 0\n"
         "  --watchdog-detach=S   after a watchdog cancel, detach (terminal"
         " `internal` error) after S more stalled seconds; 0 = never."
         " default 0\n"
         "  --watchdog-poll=S     watchdog sampling cadence. default 0.02\n"
         "  --listen=HOST:PORT    serve concurrent TCP clients instead of"
         " stdio; PORT 0 = ephemeral (bound port on stderr)\n"
         "  --max-connections=N   TCP admission cap; excess connections are"
         " answered `overloaded` and closed. default 64\n"
         "  --idle-timeout=S      reset a TCP connection silent for S"
         " seconds; 0 = never. default 0\n"
         "  --connect=HOST:PORT   dial a listening coordinator and serve"
         " that one connection (remote-worker mode)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cwatpg;

  // A peer vanishing mid-response (a coordinator killed over our pipe)
  // must surface as a failed write, not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  svc::ServerOptions options;
  std::string listen_spec;
  std::string connect_spec;
  netio::NetServerOptions net_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--listen=", 0) == 0) {
      listen_spec = arg.substr(9);
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect_spec = arg.substr(10);
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      net_options.max_connections = static_cast<std::size_t>(
          std::max(1L, std::atol(arg.c_str() + 18)));
    } else if (arg.rfind("--idle-timeout=", 0) == 0) {
      net_options.idle_timeout_seconds = std::atof(arg.c_str() + 15);
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = static_cast<std::size_t>(
          std::max(0L, std::atol(arg.c_str() + 10)));
    } else if (arg.rfind("--queue-capacity=", 0) == 0) {
      options.queue_capacity = static_cast<std::size_t>(
          std::max(1L, std::atol(arg.c_str() + 17)));
    } else if (arg.rfind("--registry-mb=", 0) == 0) {
      options.registry_bytes =
          static_cast<std::size_t>(std::max(1L, std::atol(arg.c_str() + 14)))
          << 20;
    } else if (arg.rfind("--default-deadline=", 0) == 0) {
      options.default_deadline_seconds = std::atof(arg.c_str() + 19);
    } else if (arg.rfind("--journal=", 0) == 0) {
      options.journal_path = arg.substr(10);
    } else if (arg.rfind("--watchdog-stall=", 0) == 0) {
      options.watchdog_stall_seconds = std::atof(arg.c_str() + 17);
    } else if (arg.rfind("--watchdog-detach=", 0) == 0) {
      options.watchdog_detach_seconds = std::atof(arg.c_str() + 18);
    } else if (arg.rfind("--watchdog-poll=", 0) == 0) {
      options.watchdog_poll_seconds = std::atof(arg.c_str() + 16);
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout, argv[0]);
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      print_usage(std::cerr, argv[0]);
      return 2;
    }
  }

  if (!listen_spec.empty() && !connect_spec.empty()) {
    std::cerr << "cwatpg_serve: --listen and --connect are exclusive\n";
    return 2;
  }

  try {
    svc::Server server(options);
    std::cerr << "cwatpg_serve: " << server.threads()
              << " job workers, queue capacity " << options.queue_capacity
              << ", registry budget " << (options.registry_bytes >> 20)
              << " MiB";
    if (!options.journal_path.empty())
      std::cerr << ", journal " << options.journal_path;
    if (options.watchdog_stall_seconds > 0)
      std::cerr << ", watchdog stall " << options.watchdog_stall_seconds
                << "s";

    if (!listen_spec.empty()) {
      netio::parse_host_port(listen_spec, &net_options.host,
                           &net_options.port);
      netio::NetServer net_server(server, net_options);
      // The banner's HOST:PORT line is the contract smoke scripts parse to
      // discover an ephemeral port; keep its shape stable.
      std::cerr << " — listening on " << net_options.host << ":"
                << net_server.port() << " (max " << net_options.max_connections
                << " connections)\n";
      netio::run_until_signalled(net_server);
    } else if (!connect_spec.empty()) {
      std::string host;
      std::uint16_t port = 0;
      netio::parse_host_port(connect_spec, &host, &port);
      std::cerr << " — dialing " << host << ":" << port << "\n";
      // Bounded retry with backoff: tolerates a coordinator that is still
      // binding its listener when this worker boots.
      svc::RetryOptions dial_retry;
      dial_retry.max_attempts = 10;
      dial_retry.backoff.base_seconds = 0.05;
      dial_retry.backoff.max_seconds = 1.0;
      netio::SocketTransport transport(
          netio::tcp_connect_retry(host, port, 10.0, dial_retry));
      server.serve(transport);
    } else {
      std::cerr << " — serving cwatpg.rpc/1 on stdin/stdout\n";
      svc::FdTransport transport(STDIN_FILENO, STDOUT_FILENO);
      server.serve(transport);
    }
  } catch (const std::exception& e) {
    // e.g. the journal path cannot be opened: refusing to run without the
    // durability the operator asked for beats running without it.
    std::cerr << "cwatpg_serve: fatal: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "cwatpg_serve: drained, exiting\n";
  return 0;
}
