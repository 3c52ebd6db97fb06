// Point layouts and an all-pairs oracle for the unit-disk tests: the graph
// (tests/graph/unit_disk_graph_test.cc) and the connectivity check
// (tests/geom/deployment_test.cc) must both agree with an O(n²) scan that
// applies the simulator's edge predicate, DistanceSquared(a, b) <= r*r.
//
// Each layout probes a part of geom::PairSweep's exactness argument:
// densities around the connectivity threshold (uniform, clustered and
// jittered-grid draws), points on cell boundaries, pairs at exactly the
// radius, pairs straddling the diagonal of a cell, coincident points, points
// on the area's edges and corners, and n ∈ {0, 1, 2}.
#ifndef CRN_TESTS_GEOM_UNIT_DISK_LAYOUTS_H_
#define CRN_TESTS_GEOM_UNIT_DISK_LAYOUTS_H_

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geom/deployment.h"
#include "geom/pair_sweep.h"
#include "geom/vec2.h"

namespace crn::geom::oracle {

struct UnitDiskLayout {
  std::string name;  // a gtest parameter name
  std::vector<Vec2> points;
  double radius = 1.0;
  Aabb area = Aabb::Square(1.0);
};

// gtest prints a parameter by its name.
inline void PrintTo(const UnitDiskLayout& layout, std::ostream* out) {
  *out << layout.name;
}

inline bool OracleEdge(const UnitDiskLayout& layout, std::size_t a, std::size_t b) {
  return DistanceSquared(layout.points[a], layout.points[b]) <=
         layout.radius * layout.radius;
}

// Sorted neighbour ids of every point, from all pairs.
inline std::vector<std::vector<std::int32_t>> OracleRows(const UnitDiskLayout& layout) {
  std::vector<std::vector<std::int32_t>> rows(layout.points.size());
  for (std::size_t a = 0; a < layout.points.size(); ++a) {
    for (std::size_t b = 0; b < layout.points.size(); ++b) {
      if (a != b && OracleEdge(layout, a, b)) {
        rows[a].push_back(static_cast<std::int32_t>(b));
      }
    }
  }
  return rows;
}

// Breadth-first search over the oracle's rows.
inline bool OracleConnected(const UnitDiskLayout& layout) {
  if (layout.points.size() <= 1) return true;
  const auto rows = OracleRows(layout);
  std::vector<char> seen(rows.size(), 0);
  std::vector<std::int32_t> queue{0};
  seen[0] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const std::int32_t next : rows[static_cast<std::size_t>(queue[head])]) {
      if (!seen[static_cast<std::size_t>(next)]) {
        seen[static_cast<std::size_t>(next)] = 1;
        queue.push_back(next);
      }
    }
  }
  return queue.size() == rows.size();
}

inline std::vector<UnitDiskLayout> UnitDiskLayouts() {
  std::vector<UnitDiskLayout> layouts;
  const auto add = [&layouts](std::string name, std::vector<Vec2> points,
                              double radius, Aabb area) {
    layouts.push_back({std::move(name), std::move(points), radius, area});
  };

  add("n0", {}, 1.0, Aabb::Square(4.0));
  add("n1", {{2.0, 3.0}}, 1.0, Aabb::Square(4.0));
  add("n2_adjacent", {{1.0, 1.0}, {1.5, 1.8}}, 1.0, Aabb::Square(4.0));
  add("n2_apart", {{1.0, 1.0}, {2.0, 1.5}}, 1.0, Aabb::Square(4.0));

  // 300 points at r = 10: mean degree 9.4, 6.0 and 4.2, from connected to
  // mostly not.
  for (const double side : {100.0, 125.0, 150.0}) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      Rng rng(seed);
      const Aabb area = Aabb::Square(side);
      add("uniform_side" + std::to_string(static_cast<int>(side)) + "_seed" +
              std::to_string(seed),
          UniformDeployment(300, area, rng), 10.0, area);
    }
  }
  {
    Rng rng(2);
    const Aabb area = Aabb::Square(40.0);
    add("uniform_n80_side40_r8", UniformDeployment(80, area, rng), 8.0, area);
  }
  for (const std::uint64_t seed : {3ULL, 4ULL}) {
    Rng rng(seed);
    const Aabb area = Aabb::Square(120.0);
    add("clustered_seed" + std::to_string(seed),
        ClusteredDeployment(300, 6, 14.0, area, rng), 10.0, area);
  }
  // Spacing 7 m and 10 m on a jittered grid: connected, and at threshold.
  for (const double side : {140.0, 200.0}) {
    Rng rng(5);
    const Aabb area = Aabb::Square(side);
    add("jittered_grid_side" + std::to_string(static_cast<int>(side)),
        JitteredGridDeployment(400, area, rng), 10.0, area);
  }

  // Chains whose only links are about 0.95·r long, so consecutive points are
  // often two cells apart: connected only through the outer ring of the
  // 5×5 block.
  const std::pair<const char*, Vec2> chains[] = {{"chain_east", {9.5, 0.0}},
                                                 {"chain_north", {0.0, 9.5}},
                                                 {"chain_east_north", {9.0, 3.0}},
                                                 {"chain_west_north", {-9.0, 3.0}}};
  for (const auto& [name, step] : chains) {
    std::vector<Vec2> points;
    for (int i = 0; i < 20; ++i) points.push_back(Vec2{200.0, 5.0} + step * i);
    add(name, points, 10.0, Aabb::Square(400.0));
  }

  // Points on the sweep's cell boundaries (multiples of the cell side from
  // the bounding box's corner) and on multiples of r/√2.
  {
    const double r = 10.0;
    std::vector<Vec2> points;
    for (const double step : {r * PairSweep::kCellSideOverRadius, r / std::sqrt(2.0)}) {
      for (int i = 0; i <= 8; ++i) {
        for (int j = 0; j <= 8; j += 2) points.push_back({i * step, j * step});
      }
    }
    add("cell_boundaries", points, r, Aabb::Square(8.0 * r));
  }
  // Every integer point of [0, 15]²: distances 5 (5-0 and 3-4-5 offsets)
  // are exactly r, and are computed exactly.
  {
    std::vector<Vec2> points;
    for (int x = 0; x <= 15; ++x) {
      for (int y = 0; y <= 15; ++y) points.push_back({1.0 * x, 1.0 * y});
    }
    add("integer_lattice_exact_radius", points, 5.0, Aabb::Square(15.0));
  }
  // A corner point and points (a, a) for a within 40 ulps of r/√2: the
  // pairs lie within rounding of distance r along a cell's diagonal, where
  // a cell side without margin would call same-cell pairs adjacent that are
  // not.
  for (int k = 0; k < 16; ++k) {
    const double r = 1.0 + 0.37 * k;
    std::vector<Vec2> points{{0.0, 0.0}};
    double a = r / std::sqrt(2.0);
    for (int step = 0; step < 40; ++step) a = std::nextafter(a, 0.0);
    for (int step = 0; step <= 80; ++step) {
      points.push_back({a, a});
      a = std::nextafter(a, 2.0 * r);
    }
    add("cell_diagonal_" + std::to_string(k), points, r, Aabb::Square(r));
  }
  // The same corner point with one point (a, a), a the smallest value that
  // puts it beyond r: an isolated pair that a cell side without margin
  // could put in one cell.
  for (int k = 0; k < 16; ++k) {
    const double r = 1.0 + 0.37 * k;
    double a = r / std::sqrt(2.0);
    for (int step = 0; step < 40; ++step) a = std::nextafter(a, 0.0);
    while (DistanceSquared({0.0, 0.0}, {a, a}) <= r * r) a = std::nextafter(a, 2.0 * r);
    add("cell_diagonal_pair_" + std::to_string(k), {{0.0, 0.0}, {a, a}}, r,
        Aabb::Square(r));
  }
  // Coincident points: every point three times, and one point five times.
  {
    Rng rng(6);
    const Aabb area = Aabb::Square(60.0);
    std::vector<Vec2> points;
    for (const Vec2& p : UniformDeployment(40, area, rng)) {
      points.insert(points.end(), {p, p, p});
    }
    add("coincident_triples", points, 10.0, area);
    add("coincident_all", std::vector<Vec2>(5, Vec2{7.0, 7.0}), 1.0, area);
  }
  // The area's corners and points on its four edges, plus a few inside.
  {
    Rng rng(7);
    const double side = 50.0;
    const Aabb area = Aabb::Square(side);
    std::vector<Vec2> points{{0.0, 0.0}, {side, 0.0}, {0.0, side}, {side, side}};
    for (int i = 0; i < 12; ++i) {
      const double t = rng.UniformDouble(0.0, side);
      points.insert(points.end(), {{t, 0.0}, {t, side}, {0.0, t}, {side, t}});
    }
    for (const Vec2& p : UniformDeployment(20, area, rng)) points.push_back(p);
    add("area_edges_and_corners", points, 10.0, area);
  }
  return layouts;
}

}  // namespace crn::geom::oracle

#endif  // CRN_TESTS_GEOM_UNIT_DISK_LAYOUTS_H_
