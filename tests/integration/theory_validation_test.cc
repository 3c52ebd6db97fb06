// Validates the paper's analysis (§IV-D) against the simulator: the
// closed-form bounds must dominate the measured behaviour on real runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/collection.h"
#include "core/scenario.h"
#include "core/theory.h"
#include "graph/cds_tree.h"

namespace crn::core {
namespace {

ScenarioConfig SmallConfig() {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.1);  // n = 200
  config.seed = 31;
  return config;
}

TEST(TheoryValidationTest, MeasuredDelayWithinTheorem2Bound) {
  for (std::uint64_t rep = 0; rep < 2; ++rep) {
    const Scenario scenario(SmallConfig(), rep);
    const CollectionResult result = RunAddc(scenario);
    ASSERT_TRUE(result.completed);
    EXPECT_LT(result.delay_ms, result.theorem2_delay_bound_ms)
        << "rep " << rep << ": Theorem 2 upper bound violated";
    EXPECT_GT(result.theorem1_service_bound_ms, 0.0);
  }
}

TEST(TheoryValidationTest, MeasuredCapacityAboveTheorem2LowerBound) {
  const Scenario scenario(SmallConfig(), 0);
  const CollectionResult result = RunAddc(scenario);
  ASSERT_TRUE(result.completed);
  EXPECT_GE(result.capacity_fraction, result.theorem2_capacity_fraction);
  EXPECT_LE(result.capacity_fraction, 1.0 + 1e-9)
      << "capacity cannot exceed the channel bandwidth W";
}

TEST(TheoryValidationTest, MeasuredSpectrumOpportunityNearLemma7) {
  // The slot-boundary sampling is biased toward SUs that contend longest
  // (they sit in denser PU neighborhoods), so allow a generous band around
  // the homogeneous-field p_o of Lemma 7.
  const Scenario scenario(SmallConfig(), 0);
  const CollectionResult result = RunAddc(scenario);
  ASSERT_GT(result.measured_po, 0.0);
  EXPECT_GT(result.measured_po, result.theory_po / 10.0);
  EXPECT_LT(result.measured_po, result.theory_po * 10.0);
}

TEST(TheoryValidationTest, TreeDegreeWithinLemma6Bound) {
  const ScenarioConfig config = SmallConfig();
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    const Scenario scenario(config, rep);
    const graph::CdsTree tree(scenario.secondary_graph(), scenario.sink());
    const double bound =
        MaxTreeDegreeBound(config.num_sus, config.su_radius, config.c0());
    EXPECT_LE(tree.max_children() + 1, bound) << "rep " << rep;
  }
}

TEST(TheoryValidationTest, BackboneWithinPcrWithinLemma5Bound) {
  const ScenarioConfig config = SmallConfig();
  const Scenario scenario(config, 0);
  const graph::CdsTree tree(scenario.secondary_graph(), scenario.sink());
  const double bound = BackboneWithinPcrBound(scenario.kappa());
  const auto& positions = scenario.su_positions();
  for (graph::NodeId v = 0; v < tree.node_count(); ++v) {
    std::int32_t backbone_in_pcr = 0;
    for (graph::NodeId u = 0; u < tree.node_count(); ++u) {
      if (u != v && tree.IsBackbone(u) &&
          geom::Distance(positions[v], positions[u]) <= scenario.pcr()) {
        ++backbone_in_pcr;
      }
    }
    ASSERT_LE(backbone_in_pcr, bound) << "node " << v;
  }
}

TEST(TheoryValidationTest, DelayScalesRoughlyLinearlyInN) {
  // Theorem 2: delay = O(n·τ/p_o). Halving n (same densities) should
  // roughly halve delay; allow a wide band for the Theorem-1 head and
  // variance. Single-repetition ratios range from about 1.4 to 10, so the
  // test compares mean delays over 32 repetitions (ratio about 3.4).
  ScenarioConfig big = SmallConfig();
  ScenarioConfig small = SmallConfig();
  small.num_sus = big.num_sus / 2;
  small.num_pus = big.num_pus / 2;
  small.area_side = big.area_side / std::sqrt(2.0);
  constexpr std::uint64_t kReps = 32;
  double big_delay_ms = 0.0;
  double small_delay_ms = 0.0;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    const CollectionResult rb = RunAddc(Scenario(big, rep));
    const CollectionResult rs = RunAddc(Scenario(small, rep));
    ASSERT_TRUE(rb.completed) << "rep " << rep;
    ASSERT_TRUE(rs.completed) << "rep " << rep;
    big_delay_ms += rb.delay_ms;
    small_delay_ms += rs.delay_ms;
  }
  const double ratio = big_delay_ms / small_delay_ms;
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 4.0);
}

}  // namespace
}  // namespace crn::core
