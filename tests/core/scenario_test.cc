#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "geom/deployment.h"

namespace crn::core {
namespace {

ScenarioConfig TinyConfig() {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.05);  // n = 100
  config.seed = 7;
  return config;
}

TEST(ScenarioConfigTest, PaperDefaultsMatchFig6Caption) {
  const ScenarioConfig config = ScenarioConfig::PaperDefaults();
  EXPECT_EQ(config.num_sus, 2000);
  EXPECT_EQ(config.num_pus, 400);
  EXPECT_DOUBLE_EQ(config.area_side, 250.0);
  EXPECT_DOUBLE_EQ(config.alpha, 4.0);
  EXPECT_DOUBLE_EQ(config.pu_activity, 0.3);
  EXPECT_DOUBLE_EQ(config.eta_p_db, 8.0);
  EXPECT_DOUBLE_EQ(config.eta_s_db, 8.0);
  EXPECT_DOUBLE_EQ(config.pu_power, 10.0);
  EXPECT_DOUBLE_EQ(config.su_power, 10.0);
  EXPECT_DOUBLE_EQ(config.pu_radius, 10.0);
  EXPECT_DOUBLE_EQ(config.su_radius, 10.0);
  EXPECT_EQ(config.slot, sim::kMillisecond);
  EXPECT_EQ(config.contention_window, sim::kMillisecond / 2);
}

TEST(ScenarioConfigTest, ScaledDefaultsPreserveDensities) {
  const ScenarioConfig full = ScenarioConfig::PaperDefaults();
  for (double scale : {0.1, 0.25, 0.5, 1.0}) {
    const ScenarioConfig scaled = ScenarioConfig::ScaledDefaults(scale);
    EXPECT_NEAR(scaled.num_sus / scaled.area(), full.num_sus / full.area(),
                0.02 * full.num_sus / full.area())
        << scale;
    EXPECT_NEAR(scaled.num_pus / scaled.area(), full.num_pus / full.area(),
                0.02 * full.num_pus / full.area())
        << scale;
  }
}

TEST(ScenarioConfigTest, ScaledDefaultsRejectBadScale) {
  EXPECT_THROW(ScenarioConfig::ScaledDefaults(0.0), ContractViolation);
  EXPECT_THROW(ScenarioConfig::ScaledDefaults(1.5), ContractViolation);
}

TEST(ScenarioConfigTest, DerivedQuantities) {
  const ScenarioConfig config = ScenarioConfig::PaperDefaults();
  EXPECT_DOUBLE_EQ(config.area(), 62500.0);
  EXPECT_DOUBLE_EQ(config.c0(), 31.25);
}

TEST(ScenarioTest, SinkAtCenterAndAllInsideArea) {
  const Scenario scenario(TinyConfig(), 0);
  EXPECT_EQ(scenario.sink(), 0);
  EXPECT_EQ(scenario.su_positions()[0], scenario.area().Center());
  EXPECT_EQ(scenario.su_positions().size(),
            static_cast<std::size_t>(TinyConfig().num_sus) + 1);
  EXPECT_EQ(scenario.pu_positions().size(),
            static_cast<std::size_t>(TinyConfig().num_pus));
  for (const auto& p : scenario.su_positions()) {
    EXPECT_TRUE(scenario.area().Contains(p));
  }
}

TEST(ScenarioTest, SecondaryGraphIsConnected) {
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    const Scenario scenario(TinyConfig(), rep);
    EXPECT_TRUE(scenario.secondary_graph().IsConnected(0));
  }
}

TEST(ScenarioTest, DeterministicPerSeedAndRepetition) {
  const Scenario a(TinyConfig(), 2);
  const Scenario b(TinyConfig(), 2);
  EXPECT_EQ(a.su_positions(), b.su_positions());
  EXPECT_EQ(a.pu_positions(), b.pu_positions());
  const Scenario c(TinyConfig(), 3);
  EXPECT_NE(a.su_positions(), c.su_positions());
}

TEST(ScenarioTest, DifferentSeedsDifferentDeployments) {
  ScenarioConfig other = TinyConfig();
  other.seed = 8;
  const Scenario a(TinyConfig(), 0);
  const Scenario b(other, 0);
  EXPECT_NE(a.su_positions(), b.su_positions());
}

TEST(ScenarioTest, PcrMatchesKappaTimesRadius) {
  const ScenarioConfig config = TinyConfig();
  const Scenario scenario(config, 0);
  EXPECT_NEAR(scenario.pcr(), scenario.kappa() * config.su_radius, 1e-12);
  EXPECT_NEAR(scenario.kappa(), Kappa(config.MakePcrParams(), config.c2_variant),
              1e-12);
}

TEST(ScenarioTest, SubCriticalDensityFailsLoudly) {
  ScenarioConfig config = TinyConfig();
  config.num_sus = 20;
  config.area_side = 2000.0;  // hopelessly sparse for r = 10
  config.max_deployment_attempts = 5;
  EXPECT_THROW(Scenario(config, 0), ContractViolation);
}

TEST(ScenarioTest, TryBuildReportsASubCriticalDraw) {
  ScenarioConfig config = TinyConfig();
  config.num_sus = 20;
  config.area_side = 2000.0;
  config.max_deployment_attempts = 5;
  std::string error;
  EXPECT_EQ(ScenarioPrefab::TryBuild(config, 0, &error), nullptr);
  EXPECT_NE(error.find("could not draw a connected secondary network in 5"),
            std::string::npos)
      << error;
  error.clear();
  EXPECT_NE(ScenarioPrefab::TryBuild(TinyConfig(), 0, &error), nullptr);
  EXPECT_TRUE(error.empty());
}

TEST(ScenarioConfigTest, GeometryErrorNamesTheBadField) {
  EXPECT_EQ(ScenarioGeometryError(TinyConfig()), "");
  const auto names = [](auto change, const std::string& field) {
    ScenarioConfig config = TinyConfig();
    change(config);
    return ScenarioGeometryError(config).find(field) != std::string::npos;
  };
  EXPECT_TRUE(names([](ScenarioConfig& c) { c.num_sus = 0; }, "n=0"));
  EXPECT_TRUE(names([](ScenarioConfig& c) { c.num_pus = -1; }, "N=-1"));
  EXPECT_TRUE(names([](ScenarioConfig& c) { c.area_side = -5.0; }, "area side=-5"));
  EXPECT_TRUE(
      names([](ScenarioConfig& c) { c.area_side = std::nan(""); }, "area side=nan"));
  EXPECT_TRUE(names([](ScenarioConfig& c) { c.su_radius = 0.0; }, "r=0"));
  EXPECT_TRUE(names([](ScenarioConfig& c) { c.su_radius = INFINITY; }, "r=inf"));
  EXPECT_TRUE(names([](ScenarioConfig& c) { c.max_deployment_attempts = 0; },
                    "max_deployment_attempts=0"));
  // Build enforces the same check.
  ScenarioConfig bad = TinyConfig();
  bad.su_radius = 0.0;
  EXPECT_THROW(ScenarioPrefab::Build(bad, 0), ContractViolation);
}

TEST(ScenarioTest, MakePrimaryNetworkUsesDeployedPositions) {
  const Scenario scenario(TinyConfig(), 0);
  const pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
  EXPECT_EQ(primary.count(), TinyConfig().num_pus);
  EXPECT_EQ(primary.positions(), scenario.pu_positions());
}

}  // namespace
}  // namespace crn::core
