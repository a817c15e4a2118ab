// UdpTransport over loopback sockets: what receive() returns and how long
// it waits — at once for a datagram already queued, about its timeout on
// an empty socket, until a datagram from another thread arrives, every
// queued datagram in one call in send order, and never for timeout 0.
#include "rpc/udp_transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"

namespace lht::rpc {
namespace {

/// Wall-clock bound for "returns at once": far above any syscall, far
/// below every wait the tests ask for, with room for a sanitizer build on
/// a loaded host.
constexpr u64 kPromptMs = 500;

UdpTransport bound() { return UdpTransport(UdpTransport::Options{}); }

/// Lets datagrams just sent over loopback reach the receiving socket.
/// Loopback queues a datagram inside sendto, so this settles at once; the
/// sleep only makes the "queued before receive()" premise explicit.
void letThemLand() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

TEST(UdpTransport, QueuedDatagramReturnsWithoutWaiting) {
  UdpTransport a = bound();
  UdpTransport b = bound();
  ASSERT_TRUE(a.send(b.localAddr(), "hello"));
  letThemLand();
  std::vector<Datagram> out;
  const u64 t0 = b.nowMs();
  EXPECT_EQ(b.receive(out, 10'000), 1u);
  EXPECT_LT(b.nowMs() - t0, kPromptMs);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "hello");
  EXPECT_EQ(out[0].from, a.localAddr());
  EXPECT_EQ(b.stats().datagramsReceived.load(), 1u);
  EXPECT_EQ(b.stats().bytesReceived.load(), 5u);
}

TEST(UdpTransport, EmptySocketWaitsItsTimeout) {
  UdpTransport b = bound();
  std::vector<Datagram> out;
  const u64 t0 = b.nowMs();
  EXPECT_EQ(b.receive(out, 150), 0u);
  const u64 waited = b.nowMs() - t0;
  EXPECT_GE(waited, 140u);  // poll's timeout, less a clock tick
  EXPECT_LT(waited, 150u + kPromptMs);
  EXPECT_TRUE(out.empty());
}

TEST(UdpTransport, DatagramFromAnotherThreadEndsTheWait) {
  UdpTransport a = bound();
  UdpTransport b = bound();
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    a.send(b.localAddr(), "wake");
  });
  std::vector<Datagram> out;
  const u64 t0 = b.nowMs();
  const size_t got = b.receive(out, 20'000);
  const u64 waited = b.nowMs() - t0;
  sender.join();
  EXPECT_EQ(got, 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "wake");
  EXPECT_LT(waited, 50u + kPromptMs);
}

TEST(UdpTransport, QueuedDatagramsComeBackInOneCallInSendOrder) {
  UdpTransport a = bound();
  UdpTransport b = bound();
  constexpr int kCount = 8;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(a.send(b.localAddr(), common::numbered("d", i)));
  }
  letThemLand();
  std::vector<Datagram> out;
  EXPECT_EQ(b.receive(out, 10'000), static_cast<size_t>(kCount));
  ASSERT_EQ(out.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(out[i].payload, common::numbered("d", i));
  }
  // receive() appends: what was there stays.
  ASSERT_TRUE(a.send(b.localAddr(), "more"));
  letThemLand();
  EXPECT_EQ(b.receive(out, 10'000), 1u);
  ASSERT_EQ(out.size(), static_cast<size_t>(kCount) + 1);
  EXPECT_EQ(out.back().payload, "more");
}

TEST(UdpTransport, ZeroTimeoutNeverBlocks) {
  UdpTransport a = bound();
  UdpTransport b = bound();
  std::vector<Datagram> out;
  const u64 t0 = b.nowMs();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b.receive(out, 0), 0u);
  EXPECT_LT(b.nowMs() - t0, kPromptMs);
  // With a datagram queued, timeout 0 still drains it.
  ASSERT_TRUE(a.send(b.localAddr(), "x"));
  letThemLand();
  EXPECT_EQ(b.receive(out, 0), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "x");
}

}  // namespace
}  // namespace lht::rpc
