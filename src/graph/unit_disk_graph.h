// Unit-disk graph over the secondary network (§III): nodes are the base
// station plus n SUs; an edge exists whenever two nodes are within the SU
// transmission radius r. Adjacency is stored in CSR form, each row sorted by
// id, and built in O(n · avg_degree) from one geom::PairSweep.
#ifndef CRN_GRAPH_UNIT_DISK_GRAPH_H_
#define CRN_GRAPH_UNIT_DISK_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"

namespace crn::graph {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

class UnitDiskGraph {
 public:
  // Builds the graph; `area` must contain all points.
  UnitDiskGraph(std::vector<geom::Vec2> positions, geom::Aabb area, double radius);

  [[nodiscard]] std::int32_t node_count() const {
    return static_cast<std::int32_t>(positions_.size());
  }
  [[nodiscard]] std::int64_t edge_count() const {
    return static_cast<std::int64_t>(adjacency_.size()) / 2;
  }
  [[nodiscard]] geom::Vec2 position(NodeId node) const { return positions_[node]; }
  [[nodiscard]] const std::vector<geom::Vec2>& positions() const { return positions_; }
  [[nodiscard]] geom::Aabb area() const { return area_; }
  [[nodiscard]] double radius() const { return radius_; }

  [[nodiscard]] std::span<const NodeId> Neighbors(NodeId node) const {
    return {adjacency_.data() + offsets_[node],
            static_cast<std::size_t>(offsets_[node + 1] - offsets_[node])};
  }
  [[nodiscard]] std::int32_t Degree(NodeId node) const {
    return offsets_[node + 1] - offsets_[node];
  }
  [[nodiscard]] bool HasEdge(NodeId a, NodeId b) const;

  // True when every node is reachable from `root`.
  [[nodiscard]] bool IsConnected(NodeId root = 0) const;

  // Order-sensitive FNV-1a digest over the position bit patterns, the CSR
  // offsets, and the adjacency list. Equal digests certify a bit-identical
  // graph — the scenario-prefab cache's equivalence mode compares a cached
  // graph against a freshly built one through this value.
  [[nodiscard]] std::uint64_t StructureDigest() const;

 private:
  std::vector<geom::Vec2> positions_;
  geom::Aabb area_;
  double radius_;
  std::vector<std::int32_t> offsets_;  // size node_count()+1
  std::vector<NodeId> adjacency_;
};

// BFS layering from a root (the base station). levels[v] = hop distance,
// parent[v] = BFS predecessor, order = nodes in nondecreasing-level
// visitation order. All nodes must be reachable (checked).
struct BfsLayering {
  std::vector<std::int32_t> level;
  std::vector<NodeId> parent;
  std::vector<NodeId> order;
  std::int32_t max_level = 0;
};

BfsLayering BreadthFirstLayering(const UnitDiskGraph& graph, NodeId root);

}  // namespace crn::graph

#endif  // CRN_GRAPH_UNIT_DISK_GRAPH_H_
