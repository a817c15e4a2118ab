#include "rpc/noded_process.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace lht::rpc {

std::string findNoded() {
  if (const char* env = std::getenv("LHT_NODED_PATH")) {
    if (::access(env, X_OK) == 0) return env;
  }
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return {};
  exe[n] = '\0';
  std::string dir(exe);
  const size_t slash = dir.rfind('/');
  if (slash == std::string::npos) return {};
  dir.resize(slash);
  for (const char* rel : {"/../src/rpc/lht_noded", "/lht_noded"}) {
    const std::string candidate = dir + rel;
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return {};
}

NodedProcess::NodedProcess(NodedProcess&& other) noexcept
    : pid_(other.pid_), port_(other.port_), status_(other.status_) {
  other.pid_ = -1;
}

NodedProcess& NodedProcess::operator=(NodedProcess&& other) noexcept {
  if (this != &other) {
    (void)stop();
    pid_ = other.pid_;
    port_ = other.port_;
    status_ = other.status_;
    other.pid_ = -1;
  }
  return *this;
}

NodedProcess NodedProcess::spawn(const std::string& binary,
                                 const std::vector<std::string>& args) {
  NodedProcess d;
  // argv is built before fork: the child of a threaded parent must not
  // allocate.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) return d;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return d;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  // Only the ready line is read; the daemon keeps running after the
  // pipe closes (it prints nothing else to stdout).
  FILE* pipe = ::fdopen(fds[0], "r");
  char line[256] = {0};
  const bool gotLine = pipe != nullptr && std::fgets(line, sizeof(line), pipe);
  if (pipe != nullptr) {
    std::fclose(pipe);
  } else {
    ::close(fds[0]);
  }
  unsigned port = 0;
  if (gotLine &&
      std::sscanf(line, "lht_noded: ready on 127.0.0.1:%u", &port) == 1 &&
      port != 0 && port <= 65535) {
    d.pid_ = pid;
    d.port_ = static_cast<u16>(port);
    return d;
  }
  // End of stream without a line means the daemon exited: reap it for its
  // status. One that printed something else instead is killed.
  if (gotLine) ::kill(pid, SIGKILL);
  ::waitpid(pid, &d.status_, 0);
  return d;
}

int NodedProcess::stop(int signal) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, signal);
  ::waitpid(pid_, &status_, 0);
  pid_ = -1;
  return status_;
}

}  // namespace lht::rpc
