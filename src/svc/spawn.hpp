// Worker process plumbing for the cluster coordinator: fork/exec of child
// daemons with their stdin/stdout wired to an FdTransport(read_fd,
// write_fd) — the same transport, decoder and failpoints every other
// cwatpg.rpc/1 byte stream uses (svc/transport.hpp). A worker crash — the
// failover drill's whole subject — surfaces as a clean end-of-stream or
// EPIPE, never as a hang. The embedding process must ignore SIGPIPE for
// the EPIPE path to be reachable (cwatpg_cluster installs SIG_IGN at
// startup); nothing here touches global signal state.
//
// Thread-safe: spawn_child and the reapers are free functions with no
// shared state; the returned transport follows the Transport contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "svc/transport.hpp"

namespace cwatpg::svc {

/// A spawned worker daemon: its pid plus the coordinator-side transport
/// whose write end feeds the child's stdin and whose read end drains the
/// child's stdout (stderr is inherited, so worker diagnostics land in the
/// coordinator's stderr stream).
struct ChildProcess {
  std::int64_t pid = -1;
  std::unique_ptr<Transport> transport;
};

/// fork/exec `argv` (argv[0] resolved via PATH) with stdin/stdout piped.
/// Throws std::runtime_error when the pipes or the fork fail; an exec
/// failure makes the child _exit(127), which the caller observes as
/// immediate end-of-stream.
ChildProcess spawn_child(const std::vector<std::string>& argv);

/// How a reaped child ended, for `status` `last_exit` reporting. A
/// SIGKILLed-then-waited zombie still reports its TRUE termination
/// (kill(2) on a zombie is a no-op), so "signal 9" in status means the
/// child really died of SIGKILL, not that the reaper fired one.
struct ChildExit {
  bool reaped = false;    ///< waitpid actually collected the child
  bool signaled = false;  ///< terminated by signal (code = signal number)
  int code = 0;           ///< exit code, or signal number when signaled
  /// "exit N" / "signal N" / "unknown" (not reaped).
  std::string describe() const;
};

/// Best-effort, non-throwing child reaping: SIGKILL (when `kill_first`)
/// then a blocking waitpid. Safe to call for an already-dead child.
void reap_child(std::int64_t pid, bool kill_first);

/// Like reap_child, but reports how the child terminated. The cluster
/// supervisor calls this at EOF detection — not coordinator exit — so a
/// kill -9'd worker never lingers as a zombie while the fleet serves on.
ChildExit reap_child_exit(std::int64_t pid, bool kill_first);

}  // namespace cwatpg::svc
