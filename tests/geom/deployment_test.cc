#include "geom/deployment.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "unit_disk_layouts.h"

namespace crn::geom {
namespace {

TEST(DeploymentTest, UniformCountAndBounds) {
  Rng rng(1);
  const Aabb area{{10.0, 20.0}, {30.0, 50.0}};
  const auto points = UniformDeployment(500, area, rng);
  ASSERT_EQ(points.size(), 500u);
  for (const Vec2& p : points) {
    ASSERT_TRUE(area.Contains(p)) << p;
  }
}

TEST(DeploymentTest, UniformCoversAreaEvenly) {
  Rng rng(2);
  const Aabb area = Aabb::Square(100.0);
  const auto points = UniformDeployment(10000, area, rng);
  // Quadrant counts within 5% of each other.
  int quadrant[4] = {0, 0, 0, 0};
  for (const Vec2& p : points) {
    ++quadrant[(p.x >= 50.0 ? 1 : 0) + (p.y >= 50.0 ? 2 : 0)];
  }
  for (int q : quadrant) {
    EXPECT_NEAR(q, 2500, 200);
  }
}

TEST(DeploymentTest, UniformZeroCount) {
  Rng rng(3);
  EXPECT_TRUE(UniformDeployment(0, Aabb::Square(10.0), rng).empty());
}

TEST(DeploymentTest, JitteredGridCountAndBounds) {
  Rng rng(4);
  const Aabb area = Aabb::Square(100.0);
  const auto points = JitteredGridDeployment(37, area, rng);
  ASSERT_EQ(points.size(), 37u);
  for (const Vec2& p : points) {
    ASSERT_TRUE(area.Contains(p));
  }
}

TEST(DeploymentTest, JitteredGridIsWellSpread) {
  Rng rng(5);
  const Aabb area = Aabb::Square(100.0);
  const auto points = JitteredGridDeployment(100, area, rng);  // 10x10 cells
  // One point per 10x10 cell by construction.
  std::vector<int> cells(100, 0);
  for (const Vec2& p : points) {
    const int cx = std::min(9, static_cast<int>(p.x / 10.0));
    const int cy = std::min(9, static_cast<int>(p.y / 10.0));
    ++cells[cy * 10 + cx];
  }
  for (int c : cells) {
    EXPECT_EQ(c, 1);
  }
}

TEST(DeploymentTest, ClusteredStaysInArea) {
  Rng rng(6);
  const Aabb area = Aabb::Square(50.0);
  const auto points = ClusteredDeployment(300, 4, 8.0, area, rng);
  ASSERT_EQ(points.size(), 300u);
  for (const Vec2& p : points) {
    ASSERT_TRUE(area.Contains(p));
  }
}

TEST(DeploymentTest, ClusteredIsActuallyClustered) {
  Rng rng(7);
  const Aabb area = Aabb::Square(1000.0);
  const auto points = ClusteredDeployment(400, 3, 10.0, area, rng);
  // Mean nearest-neighbor distance should be far below the uniform
  // expectation (~0.5/sqrt(density) = ~25 for 400 points on 1000^2).
  double total_nn = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double best = 1e18;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i != j) best = std::min(best, Distance(points[i], points[j]));
    }
    total_nn += best;
  }
  EXPECT_LT(total_nn / points.size(), 5.0);
}

TEST(ConnectivityTest, SinglePointAndEmptyAreConnected) {
  EXPECT_TRUE(IsUnitDiskConnected({}, Aabb::Square(10.0), 1.0));
  EXPECT_TRUE(IsUnitDiskConnected({{5.0, 5.0}}, Aabb::Square(10.0), 1.0));
}

TEST(ConnectivityTest, LineTopology) {
  const std::vector<Vec2> line{{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  EXPECT_TRUE(IsUnitDiskConnected(line, Aabb::Square(4.0), 1.0));
  EXPECT_FALSE(IsUnitDiskConnected(line, Aabb::Square(4.0), 0.9));
}

TEST(ConnectivityTest, TwoIslands) {
  const std::vector<Vec2> points{{0, 0}, {1, 0}, {10, 10}, {11, 10}};
  EXPECT_FALSE(IsUnitDiskConnected(points, Aabb::Square(12.0), 2.0));
  EXPECT_TRUE(IsUnitDiskConnected(points, Aabb::Square(12.0), 15.0));
}

TEST(ConnectivityTest, DenseUniformIsConnected) {
  Rng rng(8);
  const Aabb area = Aabb::Square(50.0);
  // 500 nodes, r=10 on 50x50: supercritical by a wide margin.
  const auto points = UniformDeployment(500, area, rng);
  EXPECT_TRUE(IsUnitDiskConnected(points, area, 10.0));
}

// IsUnitDiskConnected agrees with a breadth-first search over all pairs on
// every layout of unit_disk_layouts.h.
class ConnectivityOracleTest
    : public ::testing::TestWithParam<oracle::UnitDiskLayout> {};

TEST_P(ConnectivityOracleTest, MatchesBruteForce) {
  const oracle::UnitDiskLayout& layout = GetParam();
  EXPECT_EQ(IsUnitDiskConnected(layout.points, layout.area, layout.radius),
            oracle::OracleConnected(layout));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ConnectivityOracleTest, ::testing::ValuesIn(oracle::UnitDiskLayouts()),
    [](const ::testing::TestParamInfo<oracle::UnitDiskLayout>& layout) {
      return layout.param.name;
    });

TEST(ConnectivityTest, OracleLayoutsCoverBothOutcomes) {
  int connected = 0;
  int disconnected = 0;
  for (const oracle::UnitDiskLayout& layout : oracle::UnitDiskLayouts()) {
    ++(oracle::OracleConnected(layout) ? connected : disconnected);
  }
  EXPECT_GE(connected, 8);
  EXPECT_GE(disconnected, 8);
}

}  // namespace
}  // namespace crn::geom
