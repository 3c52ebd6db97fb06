// Scenario-prefab cache contracts: the geometry keying rule (which
// ScenarioConfig fields key a prefab and which must not), build-once
// sharing with deterministic hit/miss/bytes accounting, cached ≡ rebuilt
// bit-identity, and the key-mismatch guard on prefab-sharing Scenarios.
#include "core/scenario_prefab.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "common/check.h"
#include "core/collection.h"
#include "core/scenario.h"

namespace crn::core {
namespace {

ScenarioConfig TinyConfig() {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.05);  // n = 100
  config.seed = 7;
  return config;
}

TEST(PrefabKeyTest, GeometryFieldsKeyThePrefab) {
  const ScenarioConfig base = TinyConfig();
  const PrefabKey key = PrefabKey::Of(base, 3);
  EXPECT_EQ(key, PrefabKey::Of(base, 3));
  EXPECT_NE(key, PrefabKey::Of(base, 4));  // repetition is geometry

  ScenarioConfig changed = base;
  changed.seed += 1;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
  changed = base;
  changed.num_sus += 1;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
  changed = base;
  changed.num_pus += 1;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
  changed = base;
  changed.area_side *= 1.5;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
  changed = base;
  changed.su_radius *= 1.1;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
}

TEST(PrefabKeyTest, MacAndSpectrumParametersDoNotKeyThePrefab) {
  // The four Fig.-6 axes that sweep MAC/spectrum parameters only — τ_c,
  // p_a, PU power, SIR thresholds — must map to the same prefab, plus the
  // other simulation-side knobs.
  const ScenarioConfig base = TinyConfig();
  const PrefabKey key = PrefabKey::Of(base, 0);
  ScenarioConfig changed = base;
  changed.contention_window *= 2;
  changed.pu_activity = 0.9;
  changed.pu_power = 25.0;
  changed.eta_p_db = 11.0;
  changed.eta_s_db = 5.0;
  changed.su_power = 3.0;
  changed.alpha = 3.0;
  changed.fairness_wait = false;
  EXPECT_EQ(key, PrefabKey::Of(changed, 0));
}

TEST(ScenarioPrefabTest, BuildMatchesLegacyScenarioDeployment) {
  const ScenarioConfig config = TinyConfig();
  const auto prefab = ScenarioPrefab::Build(config, 2);
  const Scenario scenario(config, 2);  // builds its own prefab internally
  EXPECT_EQ(prefab->su_positions, scenario.su_positions());
  EXPECT_EQ(prefab->pu_positions, scenario.pu_positions());
  EXPECT_EQ(prefab->graph->StructureDigest(),
            scenario.secondary_graph().StructureDigest());
  EXPECT_EQ(prefab->GeometryDigest(),
            scenario.prefab()->GeometryDigest());
  EXPECT_GT(prefab->ApproxBytes(), 0);
  // The prebuilt tree is the CDS tree the run would have built.
  prefab->tree->Validate(*prefab->graph);
  EXPECT_EQ(prefab->tree->root(), 0);
}

TEST(ScenarioPrefabTest, GeometryDigestsArePinned) {
  // Pinned from the build before the cell-sorted pair sweep (breadth-first
  // connectivity, per-node grid queries for the graph): an equal digest
  // means the rejection loop accepted the same draw and the graph and the
  // tree are bit-identical. Repetition 0 of the dense key is the 15th draw.
  ScenarioConfig sparse;  // perfbench sparse_spectrum
  sparse.num_sus = 400;
  sparse.num_pus = 80;
  sparse.area_side = 111.8;
  sparse.seed = 1;
  ScenarioConfig figure = ScenarioConfig::ScaledDefaults(0.25);  // Fig. 6(b)
  figure.num_sus = 875;
  figure.seed = 1;
  ScenarioConfig dense;  // perfbench dense_10k
  dense.num_sus = 10'000;
  dense.num_pus = 2'000;
  dense.area_side = 559.0;
  dense.seed = 1;
  const struct {
    const char* name;
    ScenarioConfig config;
    std::uint64_t digest;
  } pins[] = {
      {"default scale 0.25", ScenarioConfig::ScaledDefaults(0.25), 0xF2862C82115EC628ULL},
      {"sparse_spectrum", sparse, 0x5585823678D43E30ULL},
      {"figure_sweep n=875", figure, 0xE174B94B6C6FFDAEULL},
      {"dense_10k", dense, 0x4096BBECC496A776ULL},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(ScenarioPrefab::Build(pin.config, 0)->GeometryDigest(), pin.digest);
  }
}

TEST(ScenarioPrefabCacheTest, SharesOneBuildPerKeyWithExactCounters) {
  const ScenarioConfig base = TinyConfig();
  ScenarioPrefabCache cache;
  const auto first = cache.Get(base, 0);
  const auto again = cache.Get(base, 0);
  EXPECT_EQ(first.get(), again.get());  // same immutable object

  ScenarioConfig mac_only = base;
  mac_only.pu_activity = 0.8;  // not geometry → same prefab
  EXPECT_EQ(cache.Get(mac_only, 0).get(), first.get());

  const auto other_rep = cache.Get(base, 1);  // geometry → fresh build
  EXPECT_NE(other_rep.get(), first.get());

  const ScenarioPrefabCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);  // two distinct keys
  EXPECT_EQ(stats.hits, 2);    // four requests total
  EXPECT_EQ(stats.bytes, first->ApproxBytes() + other_rep->ApproxBytes());
}

TEST(ScenarioPrefabCacheTest, VerifyModeRechecksEveryHit) {
  ScenarioPrefabCache cache(/*verify=*/true);
  const ScenarioConfig config = TinyConfig();
  cache.Get(config, 0);
  cache.Get(config, 0);
  cache.Get(config, 0);
  EXPECT_EQ(cache.stats().verified, 2);
}

TEST(ScenarioPrefabCacheTest, CachedScenarioRunsBitIdenticalToRebuilt) {
  const ScenarioConfig config = TinyConfig();
  ScenarioPrefabCache cache;
  const Scenario rebuilt(config, 0);
  const Scenario cached(config, 0, cache.Get(config, 0));
  RunOptions options;
  AuditReport rebuilt_report;
  options.audit_report = &rebuilt_report;
  const CollectionResult from_rebuilt = RunAddc(rebuilt, options);
  AuditReport cached_report;
  options.audit_report = &cached_report;
  const CollectionResult from_cached = RunAddc(cached, options);
  EXPECT_EQ(rebuilt_report.trace_digest, cached_report.trace_digest);
  EXPECT_DOUBLE_EQ(from_rebuilt.delay_ms, from_cached.delay_ms);
}

TEST(ScenarioTest, PrefabKeyMismatchIsAContractViolation) {
  const ScenarioConfig config = TinyConfig();
  ScenarioConfig other = config;
  other.seed += 1;  // different geometry
  const auto wrong = ScenarioPrefab::Build(other, 0);
  EXPECT_THROW(Scenario(config, 0, wrong), ContractViolation);
  EXPECT_THROW(Scenario(config, 0, nullptr), ContractViolation);
}

}  // namespace
}  // namespace crn::core
