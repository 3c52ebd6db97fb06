// Scenario prefab: the deployment-determined, immutable part of a scenario
// — SU/PU positions, the connected unit-disk secondary graph, and the CDS
// collection tree — split out of Scenario so sweep cells that share the
// same geometry can share one build.
//
// Keying rule (DESIGN.md §15): geometry is a pure function of exactly
// (seed, repetition, num_sus, num_pus, area_side, su_radius,
// max_deployment_attempts). Every other ScenarioConfig field — powers, SIR
// thresholds, PU activity, MAC timing, algorithmic knobs — feeds the
// simulation but never the deployment RNG streams, the connectivity
// resampling loop, the graph, or the tree. PrefabKey captures that subset
// bit-exactly (doubles by bit pattern), so four of the six Fig.-6 sweep
// axes (τ_c, p_a, PU power, SIR thresholds) map every point of a sweep to
// the same prefab.
//
// Invalidation is by immutability: a prefab is never mutated after Build(),
// so a cache needs no eviction or versioning — a key either names exactly
// this geometry forever or is a different key.
#ifndef CRN_CORE_SCENARIO_PREFAB_H_
#define CRN_CORE_SCENARIO_PREFAB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "geom/vec2.h"
#include "graph/cds_tree.h"
#include "graph/unit_disk_graph.h"

namespace crn::core {

struct ScenarioConfig;  // core/scenario.h

// The geometry-determining subset of (ScenarioConfig, repetition). Doubles
// are compared by bit pattern: prefab reuse requires *identical* geometry,
// not approximately-equal geometry.
struct PrefabKey {
  std::uint64_t seed = 0;
  std::uint64_t repetition = 0;
  std::int32_t num_sus = 0;
  std::int32_t num_pus = 0;
  std::uint64_t area_side_bits = 0;
  std::uint64_t su_radius_bits = 0;
  std::int32_t max_deployment_attempts = 0;

  static PrefabKey Of(const ScenarioConfig& config, std::uint64_t repetition);

  friend auto operator<=>(const PrefabKey&, const PrefabKey&) = default;
};

// One immutable deployed geometry. Shared across Scenario instances via
// shared_ptr<const ScenarioPrefab>; nothing here is mutated after Build().
struct ScenarioPrefab {
  PrefabKey key;
  geom::Aabb area;
  // Index 0 is the base station (area center); 1..n are SUs.
  std::vector<geom::Vec2> su_positions;
  std::vector<geom::Vec2> pu_positions;
  std::unique_ptr<const graph::UnitDiskGraph> graph;
  std::unique_ptr<const graph::CdsTree> tree;  // rooted at the base station

  // Deploys (resampling until the secondary graph is connected), builds the
  // graph and the CDS tree. Pure function of the key fields — the CHECKed
  // contract the cache's equivalence mode re-verifies.
  static std::shared_ptr<const ScenarioPrefab> Build(
      const ScenarioConfig& config, std::uint64_t repetition);
  // Build for input that may be sub-critical: returns nullptr and writes an
  // actionable message to *error when no draw in max_deployment_attempts
  // was connected, instead of failing the contract check.
  static std::shared_ptr<const ScenarioPrefab> TryBuild(
      const ScenarioConfig& config, std::uint64_t repetition,
      std::string* error);

  // FNV-1a digest over positions, graph CSR, and tree structure; equal
  // digests certify a bit-identical prefab.
  [[nodiscard]] std::uint64_t GeometryDigest() const;

  // Heap footprint estimate for the prefab.bytes counter: vector payloads
  // and CSR arrays, not allocator overhead. Deterministic given the key.
  [[nodiscard]] std::int64_t ApproxBytes() const;
};

// Content-addressed, thread-safe prefab cache for sweep engines. Each
// distinct PrefabKey is built exactly once (concurrent requesters block on
// the builder); the counters are therefore deterministic at every jobs
// value: misses = number of distinct keys requested, hits = requests -
// misses, bytes = sum of ApproxBytes over built prefabs — all independent
// of scheduling, so they are safe to export through the digest-compared
// MetricsRegistry.
class ScenarioPrefabCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t bytes = 0;
    // Equivalence mode only: cache hits re-verified against a fresh build.
    std::int64_t verified = 0;
  };

  // `verify` turns on the digest-verified equivalence mode: every cache hit
  // rebuilds the prefab from scratch and CRN_CHECKs GeometryDigest()
  // equality — cached ≡ rebuilt, proven per hit. Test/CI mode; the rebuild
  // obviously forfeits the cache's speedup.
  explicit ScenarioPrefabCache(bool verify = false) : verify_(verify) {}

  ScenarioPrefabCache(const ScenarioPrefabCache&) = delete;
  ScenarioPrefabCache& operator=(const ScenarioPrefabCache&) = delete;

  // Returns the shared prefab for (config, repetition), building it if this
  // is the first request for its key.
  std::shared_ptr<const ScenarioPrefab> Get(const ScenarioConfig& config,
                                            std::uint64_t repetition);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const ScenarioPrefab> prefab;
  };

  bool verify_;
  mutable std::mutex mutex_;
  std::map<PrefabKey, std::unique_ptr<Entry>> entries_;
  Stats stats_;
};

}  // namespace crn::core

#endif  // CRN_CORE_SCENARIO_PREFAB_H_
