#include "cluster.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "overlay/membership.h"
#include "rpc/rpc_client.h"
#include "rpc/udp_transport.h"

namespace perfbench {

namespace rpc = lht::rpc;

namespace {

// --- Daemon registry for the signal handler ---------------------------------
// Lock-free atomics only: the handler must stay async-signal-safe.

constexpr size_t kMaxDaemons = 64;
std::atomic<pid_t> g_daemons[kMaxDaemons];

void registerDaemon(pid_t pid) {
  for (auto& slot : g_daemons) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void unregisterDaemon(pid_t pid) {
  for (auto& slot : g_daemons) {
    pid_t p = pid;
    if (slot.compare_exchange_strong(p, 0)) return;
  }
}

/// SIGTERM, up to `graceMs` for exits, SIGKILL, reap. Async-signal-safe.
void terminateAndReap(const pid_t* pids, size_t n, int graceMs) {
  for (size_t i = 0; i < n; ++i) {
    if (pids[i] > 0) ::kill(pids[i], SIGTERM);
  }
  bool reaped[kMaxDaemons] = {};
  for (int waited = 0; waited <= graceMs; ++waited) {
    bool pending = false;
    for (size_t i = 0; i < n; ++i) {
      if (pids[i] <= 0 || reaped[i]) continue;
      const pid_t r = ::waitpid(pids[i], nullptr, WNOHANG);
      if (r == pids[i] || (r < 0 && errno == ECHILD)) {
        reaped[i] = true;
      } else {
        pending = true;
      }
    }
    if (!pending) return;
    const timespec ms{0, 1'000'000};
    ::nanosleep(&ms, nullptr);
  }
  for (size_t i = 0; i < n; ++i) {
    if (pids[i] <= 0 || reaped[i]) continue;
    ::kill(pids[i], SIGKILL);
    while (::waitpid(pids[i], nullptr, 0) < 0 && errno == EINTR) {
    }
  }
}

extern "C" void onFatalSignal(int sig) {
  pid_t pids[kMaxDaemons];
  for (size_t i = 0; i < kMaxDaemons; ++i) pids[i] = g_daemons[i].load();
  terminateAndReap(pids, kMaxDaemons, 1000);
  ::_exit(128 + sig);
}

// --- /proc ------------------------------------------------------------------

bool readFile(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Value of a "Name:   123 kB" line in a /proc status file.
std::uint64_t statusField(const std::string& status, const char* name) {
  const size_t at = status.find(name);
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + std::strlen(name), nullptr, 10);
}

template <typename Fn>
void forEachNumericEntry(const std::string& dir, Fn fn) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') fn(std::string(e->d_name));
  }
  ::closedir(d);
}

ProcSample sampleProcess(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid) + "/task/";
  forEachNumericEntry(base, [&](const std::string& tid) {
    std::string text;
    if (readFile(base + tid + "/schedstat", text)) {
      s.cpuNs += std::strtoull(text.c_str(), nullptr, 10);
    }
    if (readFile(base + tid + "/status", text)) {
      s.voluntarySwitches += statusField(text, "voluntary_ctxt_switches:");
    }
  });
  return s;
}

/// `n` distinct ports the kernel hands out for ephemeral loopback binds.
std::vector<rpc::u16> reservePorts(size_t n) {
  std::vector<std::unique_ptr<rpc::UdpTransport>> held;
  std::vector<rpc::u16> ports;
  for (size_t i = 0; i < n; ++i) {
    held.push_back(std::make_unique<rpc::UdpTransport>(rpc::UdpTransport::Options{}));
    ports.push_back(held.back()->localAddr().port);
  }
  return ports;  // the sockets close here, freeing the ports for the daemons
}

}  // namespace

std::vector<pid_t> strayDaemons() {
  std::vector<pid_t> out;
  forEachNumericEntry("/proc", [&](const std::string& pid) {
    std::string comm;
    std::string stat;
    if (!readFile("/proc/" + pid + "/comm", comm) || comm != "lht_noded\n") {
      return;
    }
    // Field 3 of stat, after "(comm) ", is the state; a zombie holds no core.
    if (readFile("/proc/" + pid + "/stat", stat)) {
      const size_t paren = stat.rfind(')');
      if (paren != std::string::npos && paren + 2 < stat.size() &&
          stat[paren + 2] == 'Z') {
        return;
      }
    }
    out.push_back(static_cast<pid_t>(std::stol(pid)));
  });
  return out;
}

void installSignalCleanup() {
  struct sigaction sa{};
  sa.sa_handler = onFatalSignal;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
}

void pinProcess(pid_t pid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  const std::string base =
      pid == 0 ? std::string("/proc/self/task/") : "/proc/" + std::to_string(pid) + "/task/";
  forEachNumericEntry(base, [&](const std::string& tid) {
    ::sched_setaffinity(static_cast<pid_t>(std::stol(tid)), sizeof(one), &one);
  });
}

std::uint64_t selfCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peakRssMb(const std::string& pid) {
  std::string status;
  if (!readFile("/proc/" + pid + "/status", status)) return 0.0;
  return static_cast<double>(statusField(status, "VmHWM:")) / 1024.0;
}

// --- Cluster ----------------------------------------------------------------

Cluster::Cluster(Options options) : opts_(std::move(options)) {
  if (opts_.daemons == 0 || opts_.daemons > kMaxDaemons) {
    throw std::runtime_error("cluster: bad daemon count");
  }
  // A static launch set: every daemon seeds the same table (--peers), so
  // the cluster is formed as soon as each one serves, with no join
  // handshake and no post-join warm window. The ports are ephemeral ones
  // the kernel picks; a port taken in between fails the bind, and the
  // launch is retried on fresh ports.
  for (int attempt = 0;; ++attempt) {
    ports_ = reservePorts(opts_.daemons);
    std::string peers;
    for (rpc::u16 p : ports_) {
      if (!peers.empty()) peers += ',';
      peers += std::to_string(p);
    }
    try {
      for (size_t i = 0; i < opts_.daemons; ++i) {
        spawn({"--port=" + std::to_string(ports_[i]), "--quiet=true",
               "--overlay=true", "--replication=" + std::to_string(opts_.replication),
               "--peers=" + peers, "--name=perfbench-" + std::to_string(i)});
      }
      for (size_t i = 0; i < opts_.daemons; ++i) awaitReady(i);
      awaitMembers();
      return;
    } catch (const std::exception&) {
      stopAll();
      if (attempt == 2) throw;
    }
  }
}

Cluster::~Cluster() { stopAll(); }

void Cluster::spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(opts_.noded.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("cluster: pipe");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("cluster: fork");
  }
  if (pid == 0) {
    // Die with the benchmark even if it is SIGKILLed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  registerDaemon(pid);
  pids_.push_back(pid);
  readyFds_.push_back(fds[0]);
}

void Cluster::awaitReady(size_t i) {
  // The daemon's contract: one "lht_noded: ready on 127.0.0.1:<port>" line.
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{readyFds_[i], POLLIN, 0};
    if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      break;
    }
    char buf[256];
    const ssize_t n = ::read(readyFds_[i], buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "lht_noded: ready on 127.0.0.1:%u", &port) != 1 ||
      port != ports_[i]) {
    throw std::runtime_error("cluster: " + opts_.noded + " did not report ready");
  }
}

void Cluster::awaitMembers() {
  rpc::UdpTransport transport(rpc::UdpTransport::Options{});
  rpc::RpcClient::Options ro;
  ro.requestDeadlineMs = 500;
  rpc::RpcClient cli(transport, ro);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (const rpc::u16 port : ports_) {
    while (true) {
      const auto r =
          cli.callOne(rpc::NetAddr{rpc::kLoopbackHost, port}, rpc::wire::GossipSyncReq{});
      const auto* rep =
          r.ok() ? std::get_if<rpc::wire::GossipSyncRep>(&r.body) : nullptr;
      size_t alive = 0;
      if (rep != nullptr) {
        for (const auto& e : rep->entries) {
          alive += e.state == static_cast<std::uint8_t>(lht::overlay::NodeState::Alive);
        }
      }
      if (alive == opts_.daemons) break;
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("cluster: membership did not form");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

void Cluster::stopAll() {
  for (int fd : readyFds_) ::close(fd);
  readyFds_.clear();
  terminateAndReap(pids_.data(), pids_.size(), 2000);
  for (pid_t pid : pids_) unregisterDaemon(pid);
  pids_.clear();
}

rpc::NetAddr Cluster::seed() const {
  return rpc::NetAddr{rpc::kLoopbackHost, ports_.at(0)};
}

ProcSample Cluster::sample() const {
  ProcSample total;
  for (pid_t pid : pids_) {
    const ProcSample s = sampleProcess(pid);
    total.cpuNs += s.cpuNs;
    total.voluntarySwitches += s.voluntarySwitches;
  }
  return total;
}

void Cluster::pinTo(int cpu) const {
  for (pid_t pid : pids_) pinProcess(pid, cpu);
}

double Cluster::peakRssMb() const {
  double total = 0.0;
  for (pid_t pid : pids_) total += perfbench::peakRssMb(std::to_string(pid));
  return total;
}

}  // namespace perfbench
