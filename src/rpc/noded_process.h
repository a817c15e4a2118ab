// NodedProcess: fork/exec one lht_noded and wait for its ready line.
//
// The launcher the loopback tests and the networked benches share: it
// finds the daemon binary, starts it with the caller's flags, parses the
// daemon's ready line (`lht_noded: ready on 127.0.0.1:<port>`) for the
// bound port, and SIGTERMs and reaps the daemon on destruction. A daemon
// that exits without a ready line (a flag error exits 2) is reaped at
// once, and its wait status is kept for the caller to check.
#pragma once

#include <sys/types.h>

#include <csignal>
#include <string>
#include <vector>

#include "rpc/transport.h"

namespace lht::rpc {

/// Path of the lht_noded binary: $LHT_NODED_PATH when it names an
/// executable, else the build tree's copy, found from the running binary
/// (/proc/self/exe: <build>/tests/lht_tests or <build>/bench/<name> ->
/// <build>/src/rpc/lht_noded). Empty when neither exists.
[[nodiscard]] std::string findNoded();

class NodedProcess {
 public:
  NodedProcess() = default;
  NodedProcess(NodedProcess&& other) noexcept;
  NodedProcess& operator=(NodedProcess&& other) noexcept;
  NodedProcess(const NodedProcess&) = delete;
  NodedProcess& operator=(const NodedProcess&) = delete;
  ~NodedProcess() { (void)stop(); }

  /// fork/execs `binary args...` and blocks until the daemon's ready
  /// line. Without one the child is reaped: running() is false and
  /// exitStatus() holds its wait status.
  static NodedProcess spawn(const std::string& binary,
                            const std::vector<std::string>& args);

  [[nodiscard]] bool running() const { return pid_ > 0; }
  [[nodiscard]] u16 port() const { return port_; }
  [[nodiscard]] NetAddr addr() const { return NetAddr{kLoopbackHost, port_}; }
  /// Wait status of a daemon that has exited (-1 while it runs).
  [[nodiscard]] int exitStatus() const { return status_; }

  /// Sends `signal` (SIGTERM stops; SIGUSR1 asks for a graceful leave),
  /// reaps the daemon and returns its wait status; -1 when not running.
  int stop(int signal = SIGTERM);

 private:
  pid_t pid_ = -1;
  u16 port_ = 0;
  int status_ = -1;
};

}  // namespace lht::rpc
