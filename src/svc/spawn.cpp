#include "svc/spawn.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace cwatpg::svc {

ChildProcess spawn_child(const std::vector<std::string>& argv) {
  if (argv.empty()) throw std::runtime_error("spawn_child: empty argv");
  int to_child[2];    // parent writes → child stdin
  int from_child[2];  // child stdout → parent reads
  if (::pipe(to_child) != 0)
    throw std::runtime_error(std::string("pipe failed: ") +
                             std::strerror(errno));
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error(std::string("pipe failed: ") +
                             std::strerror(errno));
  }
  // Close-on-exec on every pipe fd: a later-spawned sibling must not
  // inherit the parent-side write end of an earlier worker's stdin, or
  // that worker never sees EOF on close() while the sibling lives. The
  // child's own ends survive as stdin/stdout because dup2 clears the
  // flag on the duplicate.
  for (const int fd : {to_child[0], to_child[1], from_child[0],
                       from_child[1]})
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]})
      ::close(fd);
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }

  if (pid == 0) {
    // Child: stdin/stdout onto the pipes, stderr inherited.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]})
      ::close(fd);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execvp(args[0], args.data());
    ::_exit(127);
  }

  ::close(to_child[0]);
  ::close(from_child[1]);
  ChildProcess child;
  child.pid = pid;
  child.transport =
      std::make_unique<FdTransport>(from_child[0], to_child[1]);
  return child;
}

std::string ChildExit::describe() const {
  if (!reaped) return "unknown";
  return (signaled ? "signal " : "exit ") + std::to_string(code);
}

void reap_child(std::int64_t pid, bool kill_first) {
  (void)reap_child_exit(pid, kill_first);
}

ChildExit reap_child_exit(std::int64_t pid, bool kill_first) {
  ChildExit exit;
  if (pid <= 0) return exit;
  // kill(2) on an already-exited (zombie) child is a harmless no-op, so
  // waitpid below still reports the child's true termination.
  if (kill_first) ::kill(static_cast<pid_t>(pid), SIGKILL);
  int status = 0;
  pid_t reaped = -1;
  while ((reaped = ::waitpid(static_cast<pid_t>(pid), &status, 0)) < 0 &&
         errno == EINTR) {
  }
  if (reaped != static_cast<pid_t>(pid)) return exit;  // ECHILD: not ours
  exit.reaped = true;
  if (WIFEXITED(status)) {
    exit.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    exit.signaled = true;
    exit.code = WTERMSIG(status);
  }
  return exit;
}

}  // namespace cwatpg::svc
