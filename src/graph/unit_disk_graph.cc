#include "graph/unit_disk_graph.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>
#include <utility>

#include "common/check.h"
#include "geom/pair_sweep.h"

namespace crn::graph {

UnitDiskGraph::UnitDiskGraph(std::vector<geom::Vec2> positions, geom::Aabb area,
                             double radius)
    : positions_(std::move(positions)), area_(area), radius_(radius) {
  CRN_CHECK(radius > 0.0);
  const auto n = static_cast<std::int32_t>(positions_.size());
  offsets_.assign(n + 1, 0);
  if (n == 0) return;

  // One sweep lists every edge once and counts both endpoints' degrees.
  std::vector<std::pair<NodeId, NodeId>> edges;
  geom::PairSweep(positions_, radius_).ForEachPair([&](NodeId a, NodeId b) {
    edges.emplace_back(a, b);
    ++offsets_[a + 1];
    ++offsets_[b + 1];
  });
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  // Rows in sweep order, then transposed: reading the rows in id order and
  // appending each row's id to its neighbours' rows leaves every row sorted
  // by id, and the transpose of a symmetric graph is the graph itself.
  // Sorted rows make HasEdge O(log d) and iteration independent of cells.
  std::vector<NodeId> unsorted(offsets_[n]);
  std::vector<std::int32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [a, b] : edges) {
    unsorted[cursor[a]++] = b;
    unsorted[cursor[b]++] = a;
  }
  adjacency_.resize(offsets_[n]);
  std::copy(offsets_.begin(), offsets_.end() - 1, cursor.begin());
  for (NodeId v = 0; v < n; ++v) {
    for (std::int32_t k = offsets_[v]; k < offsets_[v + 1]; ++k) {
      adjacency_[cursor[unsorted[k]]++] = v;
    }
  }
}

bool UnitDiskGraph::HasEdge(NodeId a, NodeId b) const {
  const auto neighbors = Neighbors(a);
  return std::binary_search(neighbors.begin(), neighbors.end(), b);
}

bool UnitDiskGraph::IsConnected(NodeId root) const {
  const auto n = node_count();
  if (n == 0) return true;
  std::vector<char> visited(n, 0);
  std::queue<NodeId> frontier;
  frontier.push(root);
  visited[root] = 1;
  std::int32_t reached = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (NodeId u : Neighbors(v)) {
      if (!visited[u]) {
        visited[u] = 1;
        ++reached;
        frontier.push(u);
      }
    }
  }
  return reached == n;
}

namespace {

// Order-sensitive FNV-1a fold, byte-wise over 64-bit values — the same
// construction as sim::TraceDigest, local because src/graph sits below
// src/sim in the layering.
struct FnvFold {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  void Mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFU;
      hash *= 0x100000001B3ULL;
    }
  }
};

}  // namespace

std::uint64_t UnitDiskGraph::StructureDigest() const {
  FnvFold fold;
  fold.Mix(static_cast<std::uint64_t>(positions_.size()));
  for (const geom::Vec2& p : positions_) {
    fold.Mix(std::bit_cast<std::uint64_t>(p.x));
    fold.Mix(std::bit_cast<std::uint64_t>(p.y));
  }
  for (const std::int32_t offset : offsets_) {
    fold.Mix(static_cast<std::uint64_t>(offset));
  }
  for (const NodeId neighbor : adjacency_) {
    fold.Mix(static_cast<std::uint64_t>(neighbor));
  }
  return fold.hash;
}

BfsLayering BreadthFirstLayering(const UnitDiskGraph& graph, NodeId root) {
  const auto n = graph.node_count();
  CRN_CHECK(root >= 0 && root < n);
  BfsLayering result;
  result.level.assign(n, -1);
  result.parent.assign(n, kInvalidNode);
  result.order.reserve(n);

  // `order` is the FIFO queue: entries past `head` are discovered but not
  // yet expanded.
  result.order.push_back(root);
  result.level[root] = 0;
  for (std::size_t head = 0; head < result.order.size(); ++head) {
    const NodeId v = result.order[head];
    result.max_level = std::max(result.max_level, result.level[v]);
    for (NodeId u : graph.Neighbors(v)) {
      if (result.level[u] < 0) {
        result.level[u] = result.level[v] + 1;
        result.parent[u] = v;
        result.order.push_back(u);
      }
    }
  }
  CRN_CHECK(static_cast<std::int32_t>(result.order.size()) == n)
      << "secondary network graph must be connected (paper §III assumption); "
      << "reached " << result.order.size() << " of " << n << " nodes";
  return result;
}

}  // namespace crn::graph
