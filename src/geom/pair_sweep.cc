#include "geom/pair_sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace crn::geom {

PairSweep::PairSweep(std::span<const Vec2> points, double radius)
    : radius_squared_(radius * radius) {
  CRN_CHECK(radius > 0.0 && std::isfinite(radius)) << "radius=" << radius;
  const auto n = static_cast<std::int32_t>(points.size());
  cell_start_.assign(1, 0);
  if (n == 0) return;

  Vec2 lo = points.front();
  Vec2 hi = points.front();
  for (const Vec2& p : points) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  CRN_CHECK(std::isfinite(lo.x) && std::isfinite(lo.y) && std::isfinite(hi.x) &&
            std::isfinite(hi.y))
      << "points must have finite coordinates";
  // floor((p - lo) / side) never exceeds floor((hi - lo) / side), so every
  // point has its own cell and none is clamped.
  const double inverse_side = 1.0 / (radius * kCellSideOverRadius);
  const double cols = std::floor((hi.x - lo.x) * inverse_side) + 1.0;
  const double rows = std::floor((hi.y - lo.y) * inverse_side) + 1.0;
  CRN_CHECK(cols * rows < static_cast<double>(std::numeric_limits<std::int32_t>::max()))
      << "a " << cols << " x " << rows << " cell grid is too large: the points "
      << "span " << hi.x - lo.x << " x " << hi.y - lo.y << " for radius " << radius;
  cols_ = static_cast<std::int32_t>(cols);
  rows_ = static_cast<std::int32_t>(rows);

  // Counting sort by cell.
  std::vector<std::int32_t> cell_of(points.size());
  cell_start_.assign(static_cast<std::size_t>(cols_) * rows_ + 1, 0);
  for (std::int32_t i = 0; i < n; ++i) {
    const auto cx = static_cast<std::int32_t>((points[i].x - lo.x) * inverse_side);
    const auto cy = static_cast<std::int32_t>((points[i].y - lo.y) * inverse_side);
    cell_of[i] = cy * cols_ + cx;
    ++cell_start_[cell_of[i] + 1];
  }
  std::partial_sum(cell_start_.begin(), cell_start_.end(), cell_start_.begin());
  std::vector<std::int32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  xs_.resize(points.size());
  ys_.resize(points.size());
  ids_.resize(points.size());
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t slot = cursor[cell_of[i]]++;
    xs_[slot] = points[i].x;
    ys_[slot] = points[i].y;
    ids_[slot] = i;
  }
}

bool PairSweep::AnyPairWithin(std::int32_t a, std::int32_t b) const {
  for (std::int32_t i = cell_start_[a]; i < cell_start_[a + 1]; ++i) {
    for (std::int32_t j = cell_start_[b]; j < cell_start_[b + 1]; ++j) {
      if (Within(i, j)) return true;
    }
  }
  return false;
}

bool PairSweep::IsConnected() const {
  if (ids_.size() <= 1) return true;

  // An isolated point is alone in its cell and has no point within the
  // radius in the 5×5 block; the nearer ring is searched first.
  for (std::int32_t cy = 0; cy < rows_; ++cy) {
    for (std::int32_t cx = 0; cx < cols_; ++cx) {
      const std::int32_t cell = cy * cols_ + cx;
      if (cell_start_[cell + 1] - cell_start_[cell] != 1) continue;
      bool has_neighbor = false;
      for (std::int32_t ring = 1; ring <= 2 && !has_neighbor; ++ring) {
        for (std::int32_t dy = -ring; dy <= ring && !has_neighbor; ++dy) {
          for (std::int32_t dx = -ring; dx <= ring && !has_neighbor; ++dx) {
            if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
            const std::int32_t x = cx + dx;
            const std::int32_t y = cy + dy;
            if (x < 0 || x >= cols_ || y < 0 || y >= rows_) continue;
            has_neighbor = AnyPairWithin(cell, y * cols_ + x);
          }
        }
      }
      if (!has_neighbor) return false;
    }
  }

  // Union-find over the non-empty cells: the points of one cell are
  // pairwise adjacent, so the graph is connected exactly when the cells
  // are, two cells being joined by any pair within the radius.
  std::vector<std::int32_t> parent(cell_start_.size() - 1);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](std::int32_t cell) {
    while (parent[cell] != cell) {
      parent[cell] = parent[parent[cell]];  // path halving
      cell = parent[cell];
    }
    return cell;
  };
  std::int32_t components = 0;
  for (std::size_t cell = 0; cell + 1 < cell_start_.size(); ++cell) {
    if (cell_start_[cell] != cell_start_[cell + 1]) ++components;
  }
  for (std::int32_t cy = 0; cy < rows_ && components > 1; ++cy) {
    for (std::int32_t cx = 0; cx < cols_ && components > 1; ++cx) {
      const std::int32_t cell = cy * cols_ + cx;
      if (cell_start_[cell] == cell_start_[cell + 1]) continue;
      ForEachForwardCell(cx, cy, [&](std::int32_t other) {
        const std::int32_t a = find(cell);
        const std::int32_t b = find(other);
        if (a != b && AnyPairWithin(cell, other)) {
          parent[a] = b;
          --components;
        }
      });
    }
  }
  return components == 1;
}

}  // namespace crn::geom
