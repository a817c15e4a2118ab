// The daemon side of the benchmark: a cluster of lht_noded --overlay=true
// processes on ephemeral loopback ports, and what /proc says about them.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/transport.h"

namespace perfbench {

/// Live lht_noded processes on this host (zombies excluded). A run refuses
/// to start next to them: they take the cores the numbers depend on.
std::vector<pid_t> strayDaemons();

/// SIGINT/SIGTERM/SIGHUP to the benchmark terminate and reap every daemon
/// it spawned before the process exits.
void installSignalCleanup();

struct ProcSample {
  std::uint64_t cpuNs = 0;              ///< on-CPU time, all threads
  std::uint64_t voluntarySwitches = 0;  ///< sleeps (wake-ups), all threads
};

/// Binds every thread of process `pid` (0 = this process) to `cpu`.
/// Threads it creates later inherit the binding.
void pinProcess(pid_t pid, int cpu);

/// On-CPU time of this process (all threads).
std::uint64_t selfCpuNs();
/// Peak resident set (VmHWM) of a process, in MB; "self" for this one.
double peakRssMb(const std::string& pid);

class Cluster {
 public:
  struct Options {
    std::string noded;  ///< path of the lht_noded binary
    size_t daemons = 4;
    size_t replication = 2;
  };

  /// Spawns the daemons as one static launch set and returns once every
  /// daemon's table lists every daemon alive. Throws std::runtime_error
  /// (after reaping what it spawned) on failure.
  explicit Cluster(Options options);
  /// SIGTERM, then SIGKILL after a grace period, and reaps every daemon.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] lht::rpc::NetAddr seed() const;
  /// Summed over the daemons.
  [[nodiscard]] ProcSample sample() const;
  [[nodiscard]] double peakRssMb() const;
  /// Binds every daemon thread to `cpu`.
  void pinTo(int cpu) const;

 private:
  void spawn(const std::vector<std::string>& args);
  /// Blocks on daemon i's ready line (no sleeps).
  void awaitReady(size_t i);
  /// Polls every daemon's membership table, 200 us apart, until each
  /// lists every daemon alive.
  void awaitMembers();
  void stopAll();

  Options opts_;
  std::vector<pid_t> pids_;
  std::vector<int> readyFds_;
  std::vector<lht::rpc::u16> ports_;
};

}  // namespace perfbench
