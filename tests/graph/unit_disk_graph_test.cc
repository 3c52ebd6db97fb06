#include "graph/unit_disk_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "geom/deployment.h"
#include "../geom/unit_disk_layouts.h"

namespace crn::graph {
namespace {

using geom::Aabb;
using geom::Vec2;

TEST(UnitDiskGraphTest, LineTopologyEdges) {
  const std::vector<Vec2> line{{0, 0}, {1, 0}, {2, 0}, {3.5, 0}};
  const UnitDiskGraph graph(line, Aabb::Square(4.0), 1.2);
  EXPECT_EQ(graph.node_count(), 4);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(1, 2));
  EXPECT_FALSE(graph.HasEdge(0, 2));
  EXPECT_FALSE(graph.HasEdge(2, 3));  // 1.5 apart > 1.2
  EXPECT_EQ(graph.edge_count(), 2);
  EXPECT_EQ(graph.Degree(1), 2);
  EXPECT_EQ(graph.Degree(3), 0);
}

TEST(UnitDiskGraphTest, EdgeAtExactRadius) {
  const std::vector<Vec2> pair{{0, 0}, {5, 0}};
  const UnitDiskGraph graph(pair, Aabb::Square(5.0), 5.0);
  EXPECT_TRUE(graph.HasEdge(0, 1));  // boundary inclusive
}

TEST(UnitDiskGraphTest, NeighborListsSortedAndSymmetric) {
  Rng rng(1);
  const Aabb area = Aabb::Square(60.0);
  const auto points = geom::UniformDeployment(150, area, rng);
  const UnitDiskGraph graph(points, area, 10.0);
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const auto neighbors = graph.Neighbors(v);
    EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
    for (NodeId u : neighbors) {
      ASSERT_NE(u, v);
      ASSERT_TRUE(graph.HasEdge(u, v)) << "asymmetric edge " << v << "-" << u;
    }
  }
}

// Every row equals the all-pairs oracle's, on every layout of
// unit_disk_layouts.h.
class UnitDiskGraphOracleTest
    : public ::testing::TestWithParam<geom::oracle::UnitDiskLayout> {};

TEST_P(UnitDiskGraphOracleTest, EdgesMatchBruteForce) {
  const geom::oracle::UnitDiskLayout& layout = GetParam();
  const UnitDiskGraph graph(layout.points, layout.area, layout.radius);
  const std::vector<std::vector<NodeId>> rows = geom::oracle::OracleRows(layout);
  ASSERT_EQ(graph.node_count(), static_cast<std::int32_t>(rows.size()));
  std::int64_t directed_edges = 0;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const auto neighbors = graph.Neighbors(v);
    ASSERT_EQ(std::vector<NodeId>(neighbors.begin(), neighbors.end()), rows[v])
        << "row " << v;
    directed_edges += static_cast<std::int64_t>(rows[v].size());
  }
  EXPECT_EQ(2 * graph.edge_count(), directed_edges);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, UnitDiskGraphOracleTest,
    ::testing::ValuesIn(geom::oracle::UnitDiskLayouts()),
    [](const ::testing::TestParamInfo<geom::oracle::UnitDiskLayout>& layout) {
      return layout.param.name;
    });

TEST(UnitDiskGraphTest, ConnectivityDetection) {
  const std::vector<Vec2> islands{{0, 0}, {1, 0}, {20, 20}, {21, 20}};
  const UnitDiskGraph graph(islands, Aabb::Square(25.0), 2.0);
  EXPECT_FALSE(graph.IsConnected());
  const UnitDiskGraph joined(islands, Aabb::Square(25.0), 30.0);
  EXPECT_TRUE(joined.IsConnected());
}

TEST(BfsLayeringTest, LevelsOnPath) {
  const std::vector<Vec2> line{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  const UnitDiskGraph graph(line, Aabb::Square(5.0), 1.1);
  const BfsLayering bfs = BreadthFirstLayering(graph, 0);
  EXPECT_EQ(bfs.level, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(bfs.max_level, 4);
  EXPECT_EQ(bfs.parent[0], kInvalidNode);
  EXPECT_EQ(bfs.parent[3], 2);
  EXPECT_EQ(bfs.order.front(), 0);
}

TEST(BfsLayeringTest, LevelsAreShortestHopDistances) {
  Rng rng(3);
  const Aabb area = Aabb::Square(50.0);
  auto points = geom::UniformDeployment(120, area, rng);
  while (!geom::IsUnitDiskConnected(points, area, 10.0)) {
    points = geom::UniformDeployment(120, area, rng);
  }
  const UnitDiskGraph graph(points, area, 10.0);
  const BfsLayering bfs = BreadthFirstLayering(graph, 0);
  // Every edge spans at most one level, and each non-root node has a
  // neighbor exactly one level down — the defining property of BFS levels.
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    bool has_lower = v == 0;
    for (NodeId u : graph.Neighbors(v)) {
      ASSERT_LE(std::abs(bfs.level[v] - bfs.level[u]), 1);
      if (bfs.level[u] == bfs.level[v] - 1) has_lower = true;
    }
    ASSERT_TRUE(has_lower) << "node " << v;
  }
}

TEST(BfsLayeringTest, ThrowsOnDisconnectedGraph) {
  const std::vector<Vec2> islands{{0, 0}, {20, 20}};
  const UnitDiskGraph graph(islands, Aabb::Square(25.0), 2.0);
  EXPECT_THROW(BreadthFirstLayering(graph, 0), ContractViolation);
}

TEST(BfsLayeringTest, OrderIsLevelMonotone) {
  Rng rng(4);
  const Aabb area = Aabb::Square(40.0);
  std::vector<Vec2> points;
  do {
    points = geom::UniformDeployment(100, area, rng);
  } while (!geom::IsUnitDiskConnected(points, area, 12.0));
  const UnitDiskGraph graph(points, area, 12.0);
  const BfsLayering bfs = BreadthFirstLayering(graph, 0);
  for (std::size_t i = 1; i < bfs.order.size(); ++i) {
    ASSERT_LE(bfs.level[bfs.order[i - 1]], bfs.level[bfs.order[i]]);
  }
}

}  // namespace
}  // namespace crn::graph
