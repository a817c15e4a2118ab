// Tests for the Z-order multi-dimensional extension (paper footnote 1).
#include "lht/zorder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dht/local_dht.h"
#include "common/random.h"

namespace lht::core {
namespace {

TEST(ZOrder, EncodeDecodeRoundTripOnGrid) {
  const common::u32 bits = 6;
  for (common::u32 xi = 0; xi < (1u << bits); xi += 5) {
    for (common::u32 yi = 0; yi < (1u << bits); yi += 7) {
      const double x = static_cast<double>(xi) / (1 << bits);
      const double y = static_cast<double>(yi) / (1 << bits);
      auto [dx, dy] = zDecode(zEncode(x, y, bits), bits);
      EXPECT_DOUBLE_EQ(dx, x);
      EXPECT_DOUBLE_EQ(dy, y);
    }
  }
}

TEST(ZOrder, LocalityOfFirstBits) {
  // Points in the same quadrant share the leading two z-bits: their z keys
  // fall in the same quarter of [0,1).
  EXPECT_LT(zEncode(0.1, 0.2, 10), 0.25);       // (lo, lo) quadrant -> 00
  EXPECT_GE(zEncode(0.9, 0.9, 10), 0.75);       // (hi, hi) -> 11
  const double z = zEncode(0.1, 0.9, 10);       // (lo-x, hi-y) -> 01
  EXPECT_GE(z, 0.25);
  EXPECT_LT(z, 0.5);
}

TEST(ZOrder, RangesCoverExactlyTheRectCells) {
  common::Pcg32 rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Rect rect;
    rect.xlo = rng.nextDouble() * 0.8;
    rect.xhi = rect.xlo + 0.05 + rng.nextDouble() * 0.15;
    rect.ylo = rng.nextDouble() * 0.8;
    rect.yhi = rect.ylo + 0.05 + rng.nextDouble() * 0.15;
    const common::u32 bits = 6;
    auto ranges = zRangesForRect(rect, bits, /*maxRanges=*/10000);
    // Property: a grid point is inside the rect iff its z key is covered.
    for (common::u32 xi = 0; xi < (1u << bits); ++xi) {
      for (common::u32 yi = 0; yi < (1u << bits); ++yi) {
        const double x = (xi + 0.5) / (1 << bits);
        const double y = (yi + 0.5) / (1 << bits);
        const double z = zEncode(x, y, bits);
        const bool covered = std::any_of(ranges.begin(), ranges.end(),
                                         [&](const auto& iv) { return iv.contains(z); });
        const bool cellOverlapsRect =
            rect.xlo < (xi + 1.0) / (1 << bits) && x - 0.5 / (1 << bits) < rect.xhi &&
            rect.ylo < (yi + 1.0) / (1 << bits) && y - 0.5 / (1 << bits) < rect.yhi;
        ASSERT_EQ(covered, cellOverlapsRect)
            << "cell (" << xi << "," << yi << ") trial " << trial;
      }
    }
  }
}

TEST(ZOrder, RangeBudgetCoarsensButStillCovers) {
  Rect rect{0.11, 0.37, 0.52, 0.81};
  auto fine = zRangesForRect(rect, 8, 100000);
  auto coarse = zRangesForRect(rect, 8, 8);
  EXPECT_LE(coarse.size(), fine.size());
  // Every fine range must be inside some coarse range (over-approximation).
  for (const auto& f : fine) {
    EXPECT_TRUE(std::any_of(coarse.begin(), coarse.end(),
                            [&](const auto& c) { return f.subsetOf(c); }))
        << f.str();
  }
}

TEST(Lht2dIndex, RectQueryMatchesBruteForce) {
  dht::LocalDht d;
  Lht2dIndex::Options o;
  o.lht.thetaSplit = 8;
  o.lht.maxDepth = 24;
  o.bitsPerDim = 10;
  Lht2dIndex idx(d, o);

  common::Pcg32 rng(9);
  std::vector<Point2D> points;
  for (int i = 0; i < 600; ++i) {
    Point2D p{rng.nextDouble(), rng.nextDouble(), common::numbered("p", i)};
    points.push_back(p);
    idx.insert(p);
  }
  for (int q = 0; q < 30; ++q) {
    Rect rect;
    rect.xlo = rng.nextDouble() * 0.7;
    rect.xhi = rect.xlo + 0.05 + rng.nextDouble() * 0.25;
    rect.ylo = rng.nextDouble() * 0.7;
    rect.yhi = rect.ylo + 0.05 + rng.nextDouble() * 0.25;
    auto res = idx.rectQuery(rect);
    size_t expect = 0;
    for (const auto& p : points) {
      if (rect.contains(p.x, p.y)) ++expect;
    }
    ASSERT_EQ(res.points.size(), expect) << q;
    EXPECT_GE(res.curveRanges, 1u);
    for (const auto& p : res.points) EXPECT_TRUE(rect.contains(p.x, p.y));
  }
}

TEST(Lht2dIndex, KnnMatchesBruteForce) {
  dht::LocalDht d;
  Lht2dIndex::Options o;
  o.lht.thetaSplit = 8;
  o.lht.maxDepth = 24;
  o.bitsPerDim = 10;
  Lht2dIndex idx(d, o);

  common::Pcg32 rng(21);
  std::vector<Point2D> points;
  for (int i = 0; i < 500; ++i) {
    Point2D p{rng.nextDouble(), rng.nextDouble(), common::numbered("p", i)};
    points.push_back(p);
    idx.insert(p);
  }
  for (int q = 0; q < 25; ++q) {
    const double x = rng.nextDouble();
    const double y = rng.nextDouble();
    for (size_t k : {1u, 5u, 17u}) {
      auto res = idx.knnQuery(x, y, k);
      ASSERT_EQ(res.points.size(), k) << q;
      // Brute-force the same k nearest.
      auto byDist = points;
      std::sort(byDist.begin(), byDist.end(), [&](const auto& a, const auto& b) {
        const double da = (a.x - x) * (a.x - x) + (a.y - y) * (a.y - y);
        const double db = (b.x - x) * (b.x - x) + (b.y - y) * (b.y - y);
        return da < db;
      });
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(res.points[i].payload, byDist[i].payload)
            << "q=" << q << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(Lht2dIndex, KnnEdgeCases) {
  dht::LocalDht d;
  Lht2dIndex::Options o;
  o.lht.thetaSplit = 8;
  o.bitsPerDim = 8;
  Lht2dIndex idx(d, o);
  EXPECT_TRUE(idx.knnQuery(0.5, 0.5, 0).points.empty());
  // k exceeding the population returns everything.
  idx.insert({0.1, 0.1, "a"});
  idx.insert({0.9, 0.9, "b"});
  auto res = idx.knnQuery(0.0, 0.0, 10);
  ASSERT_EQ(res.points.size(), 2u);
  EXPECT_EQ(res.points[0].payload, "a");
  EXPECT_EQ(res.points[1].payload, "b");
}

TEST(ZOrder, RejectsBadInput) {
  EXPECT_THROW(zEncode(1.5, 0.5, 8), common::InvariantError);
  EXPECT_THROW(zEncode(0.5, 0.5, 0), common::InvariantError);
  EXPECT_THROW(zRangesForRect(Rect{0.5, 0.5, 0.1, 0.2}, 8), common::InvariantError);
}

}  // namespace
}  // namespace lht::core
