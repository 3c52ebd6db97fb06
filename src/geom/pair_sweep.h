// Cell-sorted pair sweep: the one neighbour primitive of the scenario build.
// The connectivity rejection loop (IsUnitDiskConnected, deployment.h) and
// the secondary graph (graph::UnitDiskGraph) both run on it, so they share
// the single edge predicate DistanceSquared(a, b) <= r*r.
//
// The points are counting-sorted into square cells of side
// kCellSideOverRadius·r, just under r/√2, and kept cell-major as a struct of
// arrays. Two facts make the sweep exact (DESIGN.md §15):
//  - a cell's diagonal is 0.99999·r, so any two points of one cell are
//    adjacent, with a relative margin of 1e-5 that rounding cannot close;
//  - cells three apart on an axis are separated by two whole cells,
//    1.414·r, so every pair within r lies in the same cell or in the 5×5
//    block of cells around it.
// Each unordered pair of cells in such a block is visited once, from the
// earlier cell in row-major order, through the 12 forward offsets.
//
// The grid spans the points' own bounding box, so no point is ever clamped
// into a cell it does not lie in.
#ifndef CRN_GEOM_PAIR_SWEEP_H_
#define CRN_GEOM_PAIR_SWEEP_H_

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/vec2.h"

namespace crn::geom {

class PairSweep {
 public:
  // Cell side over the radius: below 1/√2 = 0.70710678 by 1e-5 relative.
  static constexpr double kCellSideOverRadius = 0.7071;

  PairSweep(std::span<const Vec2> points, double radius);

  // Calls visit(a, b) exactly once for every unordered pair of point
  // indices a != b with DistanceSquared(points[a], points[b]) <= radius².
  // The order of pairs, and of a and b within a pair, follows the cells.
  template <typename PairVisitor>
  void ForEachPair(PairVisitor&& visit) const {
    for (std::int32_t cy = 0; cy < rows_; ++cy) {
      for (std::int32_t cx = 0; cx < cols_; ++cx) {
        const std::int32_t cell = cy * cols_ + cx;
        const std::int32_t begin = cell_start_[cell];
        const std::int32_t end = cell_start_[cell + 1];
        if (begin == end) continue;
        for (std::int32_t i = begin; i < end; ++i) {
          for (std::int32_t j = i + 1; j < end; ++j) visit(ids_[i], ids_[j]);
        }
        ForEachForwardCell(cx, cy, [&](std::int32_t other) {
          for (std::int32_t i = begin; i < end; ++i) {
            for (std::int32_t j = cell_start_[other]; j < cell_start_[other + 1]; ++j) {
              if (Within(i, j)) visit(ids_[i], ids_[j]);
            }
          }
        });
      }
    }
  }

  // True when the unit-disk graph over the points is connected. Rejects a
  // draw with an isolated point first (only a point alone in its cell can
  // be one), then joins non-empty cells in a union-find at their first pair
  // within the radius.
  [[nodiscard]] bool IsConnected() const;

 private:
  // The 12 offsets (dx, dy) that follow (0, 0) in row-major order within
  // the 5×5 block.
  static constexpr std::array<std::pair<std::int32_t, std::int32_t>, 12>
      kForward{{{1, 0}, {2, 0},
                {-2, 1}, {-1, 1}, {0, 1}, {1, 1}, {2, 1},
                {-2, 2}, {-1, 2}, {0, 2}, {1, 2}, {2, 2}}};

  template <typename CellVisitor>
  void ForEachForwardCell(std::int32_t cx, std::int32_t cy, CellVisitor&& visit) const {
    for (const auto& [dx, dy] : kForward) {
      const std::int32_t x = cx + dx;
      const std::int32_t y = cy + dy;
      if (x < 0 || x >= cols_ || y >= rows_) continue;
      const std::int32_t other = y * cols_ + x;
      if (cell_start_[other] != cell_start_[other + 1]) visit(other);
    }
  }

  // The edge predicate on two sorted slots.
  [[nodiscard]] bool Within(std::int32_t i, std::int32_t j) const {
    return DistanceSquared({xs_[i], ys_[i]}, {xs_[j], ys_[j]}) <= radius_squared_;
  }

  // True when some point of `a` and some point of `b` are within the radius.
  [[nodiscard]] bool AnyPairWithin(std::int32_t a, std::int32_t b) const;

  double radius_squared_;
  std::int32_t cols_ = 0;
  std::int32_t rows_ = 0;
  // cell_start_[c]..cell_start_[c+1] are the sorted slots of cell c.
  std::vector<std::int32_t> cell_start_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::int32_t> ids_;  // the point index of each slot
};

}  // namespace crn::geom

#endif  // CRN_GEOM_PAIR_SWEEP_H_
