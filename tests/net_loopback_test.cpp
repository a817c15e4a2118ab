// Real-socket smoke tests: fork/exec lht_noded daemons on ephemeral UDP
// ports and drive them through UdpTransport — the only tests that cross a
// process boundary, so they pin the parts the SimHub twin cannot: the
// socket wait, real sockaddr round-trips, the daemon's ready-line and
// flag-error contract, and clean SIGTERM shutdown. Skipped (not failed)
// when the lht_noded binary is not where the build puts it.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dht/routed_net_dht.h"
#include "rpc/noded_process.h"
#include "rpc/rpc_client.h"
#include "rpc/udp_transport.h"

namespace lht::rpc {
namespace {

TEST(NetLoopback, DaemonAnswersOverRealSockets) {
  const std::string binary = findNoded();
  if (binary.empty()) GTEST_SKIP() << "lht_noded binary not found";
  NodedProcess daemon = NodedProcess::spawn(
      binary, {"--port=0", "--quiet=true", "--name=loopback-a"});
  ASSERT_TRUE(daemon.running());
  const NetAddr server = daemon.addr();

  UdpTransport transport{UdpTransport::Options{}};  // ephemeral client port
  RpcClient cli(transport);
  auto ping = cli.callOne(server, wire::PingReq{});
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(std::get<wire::PingRep>(ping.body).nodeName, "loopback-a");

  auto put = cli.callOne(server, wire::PutReq{"k", "loopback-value"});
  ASSERT_TRUE(put.ok());
  auto get = cli.callOne(server, wire::GetReq{"k"});
  ASSERT_TRUE(get.ok());
  EXPECT_TRUE(std::get<wire::GetRep>(get.body).present);
  EXPECT_EQ(std::get<wire::GetRep>(get.body).value, "loopback-value");

  // Clean shutdown on SIGTERM is part of the daemon contract.
  const int status = daemon.stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(NetLoopback, NetDhtAcrossTwoProcesses) {
  const std::string binary = findNoded();
  if (binary.empty()) GTEST_SKIP() << "lht_noded binary not found";
  // A seed and one joiner, the way run_cluster.sh grows a cluster.
  NodedProcess a = NodedProcess::spawn(
      binary, {"--port=0", "--quiet=true", "--name=proc-a", "--replication=2"});
  ASSERT_TRUE(a.running());
  NodedProcess b = NodedProcess::spawn(
      binary, {"--port=0", "--quiet=true", "--name=proc-b", "--replication=2",
               "--seed-port=" + std::to_string(a.port())});
  ASSERT_TRUE(b.running());

  dht::RoutedNetDht::Options o;
  o.seed = a.addr();
  o.replication = 2;
  dht::RoutedNetDht dht(
      o, [] { return std::make_unique<UdpTransport>(UdpTransport::Options{}); });
  // The joiner announces ready before its join handshake: re-pull until
  // the view holds both members.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (dht.knownMembers() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(dht.bootstrap(5000));
    if (dht.knownMembers() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_EQ(dht.knownMembers(), 2u);

  for (int i = 0; i < 20; ++i) {
    dht.put(common::numbered("key", i), common::numbered("v", i));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(dht.get(common::numbered("key", i)), common::numbered("v", i));
    EXPECT_EQ(dht.getReplica(common::numbered("key", i), 0),
              common::numbered("v", i));
  }
  EXPECT_TRUE(dht.apply("key0", [](std::optional<dht::Value>& v) {
    ASSERT_TRUE(v.has_value());
    *v += "+applied";
  }));
  EXPECT_EQ(dht.get("key0"), "v0+applied");

  std::vector<dht::Key> keys;
  for (int i = 0; i < 20; ++i) keys.push_back(common::numbered("key", i));
  auto outcomes = dht.multiGet(keys);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << keys[i] << ": " << outcomes[i].error;
    ASSERT_TRUE(outcomes[i].value.has_value());
  }
  EXPECT_EQ(dht.size(), 20u);
  EXPECT_EQ(dht.routedStats().timeouts, 0u);

  for (NodedProcess* d : {&a, &b}) {
    const int status = d->stop();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

TEST(NetLoopback, MalformedPortFlagsExitTwoBeforeReady) {
  const std::string binary = findNoded();
  if (binary.empty()) GTEST_SKIP() << "lht_noded binary not found";
  for (const char* bad : {"--peers=abc", "--peers=9301,,9302", "--peers=70000",
                          "--port=70000", "--seed-port=70000"}) {
    NodedProcess d = NodedProcess::spawn(binary, {bad, "--quiet=true"});
    EXPECT_FALSE(d.running()) << bad << " printed a ready line";
    ASSERT_TRUE(WIFEXITED(d.exitStatus())) << bad;
    EXPECT_EQ(WEXITSTATUS(d.exitStatus()), 2) << bad;
  }
}

}  // namespace
}  // namespace lht::rpc
