// Membership-table and ring unit tests: SWIM-style merge order (higher
// incarnation wins, worse state breaks ties), self-refutation, the local
// failure-detector transitions, and the ring-is-a-pure-function property
// the whole overlay routing scheme rests on (DESIGN.md §15).
#include "overlay/membership.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lht::overlay {
namespace {

using rpc::wire::NodeEntry;

NodeEntry entryFor(u16 port, u64 incarnation = 1,
                   NodeState state = NodeState::Alive) {
  NodeEntry e = launchEntry(NetAddr{0, port});
  e.incarnation = incarnation;
  e.state = static_cast<u8>(state);
  return e;
}

TEST(NodeId, StableNonZeroDistinct) {
  const u64 a = nodeIdFor(NetAddr{0, 7001});
  const u64 b = nodeIdFor(NetAddr{0, 7002});
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, nodeIdFor(NetAddr{0, 7001}));  // pure function of the addr
  EXPECT_NE(a, nodeIdFor(NetAddr{1, 7001}));  // host participates too
}

TEST(MembershipTable, StartsWithSelfAlive) {
  MembershipTable t(entryFor(7001));
  EXPECT_EQ(t.selfId(), nodeIdFor(NetAddr{0, 7001}));
  EXPECT_EQ(t.knownCount(), 1u);
  EXPECT_EQ(t.ringMemberCount(), 1u);
  EXPECT_TRUE(t.peerIds().empty());
  auto self = t.find(t.selfId());
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->state, static_cast<u8>(NodeState::Alive));
}

TEST(MembershipTable, MergeAddsAndIsIdempotent) {
  MembershipTable t(entryFor(7001));
  const u64 v0 = t.version();
  EXPECT_TRUE(t.merge(entryFor(7002)));
  EXPECT_GT(t.version(), v0);
  EXPECT_EQ(t.knownCount(), 2u);
  const u64 v1 = t.version();
  // Same entry again: no structural change, no version bump.
  EXPECT_FALSE(t.merge(entryFor(7002)));
  EXPECT_EQ(t.version(), v1);
}

TEST(MembershipTable, HigherIncarnationWinsOutright) {
  MembershipTable t(entryFor(7001));
  t.merge(entryFor(7002, /*incarnation=*/2, NodeState::Suspect));
  // A fresher incarnation overrides even a "better" state losing...
  EXPECT_TRUE(t.merge(entryFor(7002, /*incarnation=*/3, NodeState::Alive)));
  EXPECT_EQ(t.find(nodeIdFor(NetAddr{0, 7002}))->state,
            static_cast<u8>(NodeState::Alive));
  // ...and a stale incarnation is ignored no matter how bad its news.
  EXPECT_FALSE(t.merge(entryFor(7002, /*incarnation=*/1, NodeState::Dead)));
  EXPECT_EQ(t.find(nodeIdFor(NetAddr{0, 7002}))->incarnation, 3u);
}

TEST(MembershipTable, EqualIncarnationWorseStateWins) {
  MembershipTable t(entryFor(7001));
  t.merge(entryFor(7002, 5, NodeState::Alive));
  EXPECT_TRUE(t.merge(entryFor(7002, 5, NodeState::Suspect)));
  EXPECT_FALSE(t.merge(entryFor(7002, 5, NodeState::Alive)));  // no downgrade
  EXPECT_TRUE(t.merge(entryFor(7002, 5, NodeState::Dead)));
  EXPECT_TRUE(t.merge(entryFor(7002, 5, NodeState::Left)));
  EXPECT_EQ(t.find(nodeIdFor(NetAddr{0, 7002}))->state,
            static_cast<u8>(NodeState::Left));
}

TEST(MembershipTable, RefutesRumorsAboutSelf) {
  MembershipTable t(entryFor(7001), /*incarnation=*/1);
  const u64 refutationsBefore = t.refutations();
  // A peer gossips that WE are dead at our own incarnation. Merge must
  // jump our incarnation past the claim and stay Alive, so the next
  // round's push overrides the rumor everywhere.
  EXPECT_TRUE(t.merge(entryFor(7001, 1, NodeState::Dead)));
  auto self = t.find(t.selfId());
  EXPECT_EQ(self->state, static_cast<u8>(NodeState::Alive));
  EXPECT_GT(t.selfIncarnation(), 1u);
  EXPECT_GT(t.refutations(), refutationsBefore);
}

TEST(MembershipTable, FailureDetectorTransitions) {
  MembershipTable t(entryFor(7001));
  const u64 peer = nodeIdFor(NetAddr{0, 7002});
  t.merge(entryFor(7002));
  EXPECT_EQ(t.ringMemberCount(), 2u);

  EXPECT_TRUE(t.markSuspect(peer));
  EXPECT_FALSE(t.markSuspect(peer));  // already there
  EXPECT_EQ(t.ringMemberCount(), 2u);  // Suspect still owns its keys

  EXPECT_TRUE(t.markDead(peer));
  EXPECT_EQ(t.ringMemberCount(), 1u);

  // The accused refutes with a bumped incarnation: back on the ring.
  EXPECT_TRUE(t.merge(entryFor(7002, /*incarnation=*/2)));
  EXPECT_EQ(t.ringMemberCount(), 2u);

  // Self transitions are refused — a node never suspects itself.
  EXPECT_FALSE(t.markSuspect(t.selfId()));
  EXPECT_FALSE(t.markDead(t.selfId()));
}

TEST(MembershipTable, LeftIsTerminal) {
  MembershipTable t(entryFor(7001));
  t.merge(entryFor(7002, 3));
  EXPECT_TRUE(t.markLeft(nodeIdFor(NetAddr{0, 7002}), 4));
  // Even a fresher Alive announcement cannot resurrect a Left node at or
  // below the departure incarnation.
  EXPECT_FALSE(t.merge(entryFor(7002, 4, NodeState::Alive)));
  EXPECT_EQ(t.ringMemberCount(), 1u);
}

TEST(MembershipTable, LeaveSelfBumpsIncarnation) {
  MembershipTable t(entryFor(7001), /*incarnation=*/7);
  t.leaveSelf();
  auto self = t.find(t.selfId());
  EXPECT_EQ(self->state, static_cast<u8>(NodeState::Left));
  EXPECT_GT(t.selfIncarnation(), 7u);  // the rumor must beat Alive@7
}

TEST(MembershipTable, MergeAllCountsChanges) {
  MembershipTable t(entryFor(7001));
  std::vector<NodeEntry> batch = {entryFor(7002), entryFor(7003),
                                  entryFor(7001)};  // self: no-op
  EXPECT_EQ(t.mergeAll(batch), 2u);
  EXPECT_EQ(t.mergeAll(batch), 0u);  // idempotent
}

TEST(MemberRing, PureFunctionOfTheTable) {
  // Two participants with byte-equal tables must compute the identical
  // key → owner map — the property that replaces routing coordination.
  std::vector<NodeEntry> table = {entryFor(7001), entryFor(7002),
                                  entryFor(7003)};
  MemberRing a(table, 32);
  MemberRing b(table, 32);
  EXPECT_EQ(a.memberCount(), 3u);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "leaf/" + std::to_string(i);
    EXPECT_EQ(a.owner(key), b.owner(key));
    EXPECT_NE(a.owner(key), 0u);
  }
}

TEST(MemberRing, DeadAndLeftContributeNothing) {
  std::vector<NodeEntry> full = {entryFor(7001), entryFor(7002),
                                 entryFor(7003)};
  std::vector<NodeEntry> shrunk = {entryFor(7001),
                                   entryFor(7002, 2, NodeState::Dead),
                                   entryFor(7003, 2, NodeState::Left)};
  MemberRing ring(shrunk, 32);
  EXPECT_EQ(ring.memberCount(), 1u);
  const u64 survivor = nodeIdFor(NetAddr{0, 7001});
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ring.owner(common::numbered("k", i)), survivor);
  }
  // Suspect members still own keys (they may yet refute).
  std::vector<NodeEntry> suspect = {entryFor(7001),
                                    entryFor(7002, 1, NodeState::Suspect)};
  EXPECT_EQ(MemberRing(suspect, 32).memberCount(), 2u);
}

TEST(MemberRing, OwnerExcludingPredictsDeparture) {
  std::vector<NodeEntry> table = {entryFor(7001), entryFor(7002),
                                  entryFor(7003)};
  MemberRing ring(table, 32);
  std::vector<NodeEntry> without = {entryFor(7001), entryFor(7003)};
  MemberRing shrunk(without, 32);
  const u64 leaving = nodeIdFor(NetAddr{0, 7002});
  for (int i = 0; i < 200; ++i) {
    const std::string key = common::numbered("k", i);
    // ownerExcluding on the full ring == owner on the ring without the
    // excluded node: the leave handoff targets exactly the future owners.
    EXPECT_EQ(ring.ownerExcluding(key, leaving), shrunk.owner(key));
  }
}

TEST(MemberRing, HoldersDistinctAndLedByOwner) {
  std::vector<NodeEntry> table = {entryFor(7001), entryFor(7002),
                                  entryFor(7003), entryFor(7004)};
  MemberRing ring(table, 32);
  for (int i = 0; i < 100; ++i) {
    const std::string key = common::numbered("k", i);
    const auto holders = ring.holders(key, 2);
    ASSERT_EQ(holders.size(), 3u);
    EXPECT_EQ(holders[0], ring.owner(key));
    EXPECT_NE(holders[0], holders[1]);
    EXPECT_NE(holders[0], holders[2]);
    EXPECT_NE(holders[1], holders[2]);
  }
  // Asking for more replicas than peers exist degrades gracefully.
  MemberRing pair({entryFor(7001), entryFor(7002)}, 32);
  EXPECT_EQ(pair.holders("k", 5).size(), 2u);
  EXPECT_TRUE(MemberRing().holders("k", 2).empty());
}

}  // namespace
}  // namespace lht::overlay
