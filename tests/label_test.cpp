// Unit tests for the Label bit-string algebra (paper Sec. 3.2 conventions).
#include "common/label.h"

#include <gtest/gtest.h>
#include <cmath>

#include "common/types.h"

namespace lht::common {
namespace {

TEST(Label, VirtualRootIsEmpty) {
  Label l;
  EXPECT_TRUE(l.isVirtualRoot());
  EXPECT_EQ(l.length(), 0u);
  EXPECT_EQ(l.str(), "#");
}

TEST(Label, RootIsHashZero) {
  Label r = Label::root();
  EXPECT_EQ(r.str(), "#0");
  EXPECT_EQ(r.length(), 1u);
  EXPECT_EQ(r.bit(0), 0);
}

TEST(Label, ChildAndParentRoundTrip) {
  Label l = Label::root().child(1).child(0).child(1);
  EXPECT_EQ(l.str(), "#0101");
  EXPECT_EQ(l.parent().str(), "#010");
  EXPECT_EQ(l.parent().parent().parent(), Label::root());
}

TEST(Label, ParseAndStrRoundTrip) {
  for (const char* text : {"#", "#0", "#01", "#0110", "#01001110001"}) {
    auto l = Label::parse(text);
    ASSERT_TRUE(l.has_value()) << text;
    EXPECT_EQ(l->str(), text);
  }
}

TEST(Label, ParseRejectsMalformed) {
  EXPECT_FALSE(Label::parse("").has_value());
  EXPECT_FALSE(Label::parse("01").has_value());
  EXPECT_FALSE(Label::parse("#012").has_value());
  EXPECT_FALSE(Label::parse("#0 1").has_value());
  EXPECT_FALSE(Label::parse(std::string("#") + std::string(60, '0')).has_value());
}

TEST(Label, BitAccess) {
  auto l = *Label::parse("#0110");
  EXPECT_EQ(l.bit(0), 0);
  EXPECT_EQ(l.bit(1), 1);
  EXPECT_EQ(l.bit(2), 1);
  EXPECT_EQ(l.bit(3), 0);
  EXPECT_EQ(l.lastBit(), 0);
}

TEST(Label, Sibling) {
  EXPECT_EQ(Label::parse("#010")->sibling().str(), "#011");
  EXPECT_EQ(Label::parse("#011")->sibling().str(), "#010");
  EXPECT_THROW((void)Label::root().sibling(), InvariantError);
}

TEST(Label, PrefixAndIsPrefixOf) {
  auto l = *Label::parse("#01101");
  EXPECT_EQ(l.prefix(0).str(), "#");
  EXPECT_EQ(l.prefix(3).str(), "#011");
  EXPECT_TRUE(Label::parse("#011")->isPrefixOf(l));
  EXPECT_TRUE(l.isPrefixOf(l));
  EXPECT_FALSE(Label::parse("#010")->isPrefixOf(l));
  EXPECT_FALSE(l.isPrefixOf(*Label::parse("#011")));
}

TEST(Label, TrailingRunLength) {
  EXPECT_EQ(Label().trailingRunLength(), 0u);
  EXPECT_EQ(Label::parse("#0")->trailingRunLength(), 1u);
  EXPECT_EQ(Label::parse("#00")->trailingRunLength(), 2u);
  EXPECT_EQ(Label::parse("#011")->trailingRunLength(), 2u);
  EXPECT_EQ(Label::parse("#0110")->trailingRunLength(), 1u);
  EXPECT_EQ(Label::parse("#0111")->trailingRunLength(), 3u);
}

TEST(Label, LeftmostRightmostPaths) {
  EXPECT_TRUE(Label::parse("#00")->isLeftmostPath());
  EXPECT_TRUE(Label::parse("#0")->isLeftmostPath());
  EXPECT_FALSE(Label::parse("#001")->isLeftmostPath());
  EXPECT_TRUE(Label::parse("#0")->isRightmostPath());
  EXPECT_TRUE(Label::parse("#011")->isRightmostPath());
  EXPECT_FALSE(Label::parse("#0110")->isRightmostPath());
  EXPECT_FALSE(Label().isRightmostPath());
}

TEST(Label, IntervalsAreDyadic) {
  EXPECT_EQ(Label().interval(), unitInterval());
  EXPECT_EQ(Label::root().interval(), unitInterval());
  EXPECT_EQ(Label::parse("#00")->interval(), (Interval{0.0, 0.5}));
  EXPECT_EQ(Label::parse("#01")->interval(), (Interval{0.5, 1.0}));
  EXPECT_EQ(Label::parse("#0110")->interval(), (Interval{0.75, 0.875}));
}

TEST(Label, ChildrenPartitionTheInterval) {
  for (const char* text : {"#0", "#01", "#0010", "#01101"}) {
    Label node = *Label::parse(text);
    Interval iv = node.interval();
    Interval l = node.child(0).interval();
    Interval r = node.child(1).interval();
    EXPECT_DOUBLE_EQ(l.lo, iv.lo);
    EXPECT_DOUBLE_EQ(l.hi, r.lo);
    EXPECT_DOUBLE_EQ(r.hi, iv.hi);
  }
}

TEST(Label, FromKeyMatchesPaperExample) {
  // Paper Sec. 5: mu(0.4, 6) = #00110 — root prefix "#0" then 0110, the
  // binary of 0.4. The paper's length 6 counts the '#'; our depth counts
  // bits only, so depth 5 yields the same string.
  EXPECT_EQ(Label::fromKey(0.4, 5).str(), "#00110");
}

TEST(Label, FromKeyCoversKey) {
  for (double key : {0.0, 0.1, 0.25, 0.5, 0.7321, 0.999, 1.0}) {
    for (u32 depth : {2u, 5u, 20u}) {
      Label mu = Label::fromKey(key, depth);
      EXPECT_EQ(mu.length(), depth);
      // Every prefix of mu covers key (with key==1.0 clamped to the last cell).
      const double k = key == 1.0 ? std::nextafter(1.0, 0.0) : key;
      for (u32 n = 1; n <= depth; ++n) {
        EXPECT_TRUE(mu.prefix(n).covers(k))
            << "key=" << key << " depth=" << depth << " n=" << n;
      }
    }
  }
}

TEST(Label, OrderingFollowsTreePosition) {
  EXPECT_LT(*Label::parse("#00"), *Label::parse("#01"));
  EXPECT_LT(*Label::parse("#0"), *Label::parse("#00"));   // prefix first
  EXPECT_LT(*Label::parse("#001"), *Label::parse("#01"));
  EXPECT_EQ(*Label::parse("#010"), *Label::parse("#010"));
}

TEST(Label, HashDistinguishesLengths) {
  EXPECT_NE(Label::parse("#0")->hashValue(), Label::parse("#00")->hashValue());
  EXPECT_NE(Label::parse("#01")->hashValue(), Label::parse("#001")->hashValue());
}

TEST(Label, FromBitsRejectsStrayBits) {
  EXPECT_THROW(Label::fromBits(0b100, 2), InvariantError);
  EXPECT_THROW(Label::fromBits(0, Label::kMaxBits + 1), InvariantError);
}

}  // namespace
}  // namespace lht::common
