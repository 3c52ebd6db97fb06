#include "harness/sweep.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"

namespace crn::harness {
namespace {

core::ScenarioConfig TinyConfig() {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.05);
  config.seed = 11;
  config.audit_stride = 0;  // keep the test fast
  return config;
}

void ClearBenchEnv() {
  ::unsetenv("CRN_FULL_SCALE");
  ::unsetenv("CRN_SCALE");
  ::unsetenv("CRN_REPS");
  ::unsetenv("CRN_JOBS");
  ::unsetenv("CRN_GRAIN");
  ::unsetenv("CRN_SEED");
  ::unsetenv("CRN_JSON_OUT");
}

// Builds argv with a leading program name and resolves.
BenchOptions Resolve(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return ResolveBenchOptions(static_cast<int>(args.size()), args.data());
}

TEST(SweepTest, RepeatedComparisonProducesSaneSummary) {
  const ComparisonSummary summary = RunRepeatedComparison(TinyConfig(), 2);
  EXPECT_EQ(summary.addc_delay_ms.count, 2u);
  EXPECT_EQ(summary.coolest_delay_ms.count, 2u);
  EXPECT_EQ(summary.addc_completed, 2);
  EXPECT_EQ(summary.coolest_completed, 2);
  EXPECT_GT(summary.addc_delay_ms.mean, 0.0);
  EXPECT_GT(summary.coolest_delay_ms.mean, 0.0);
  EXPECT_GT(summary.delay_ratio, 0.0);
  EXPECT_GT(summary.addc_capacity.mean, 0.0);
  EXPECT_GT(summary.theorem2_bound_ms_mean, summary.addc_delay_ms.mean)
      << "Theorem 2 upper bound must dominate the measured delay";
  EXPECT_EQ(summary.addc_trace_digest, 0u) << "digests are opt-in";
}

TEST(SweepTest, RunSweepComputesOneSummaryPerPoint) {
  SweepSpec spec;
  spec.title = "test sweep";
  spec.parameter_name = "param";
  core::ScenarioConfig config = TinyConfig();
  spec.points.push_back({"A", config});
  config.pu_activity = 0.2;
  spec.points.push_back({"B", config});
  const SweepResult result = RunSweep(spec);
  ASSERT_EQ(result.summaries.size(), 2u);
  EXPECT_EQ(result.labels, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(result.title, "test sweep");
  EXPECT_EQ(result.seed, 11u);
  EXPECT_EQ(result.jobs, 1);
  EXPECT_EQ(result.trace_digest, 0u) << "digests are opt-in";
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.summaries[0].addc_delay_ms.mean, 0.0);
}

TEST(SweepTest, RunSweepRejectsAnUndeployablePointByName) {
  SweepSpec spec;
  spec.title = "bad sweep";
  core::ScenarioConfig config = TinyConfig();
  spec.points.push_back({"ok", config});
  config.area_side = 0.0;
  spec.points.push_back({"flat", config});
  try {
    RunSweep(spec);
    FAIL() << "RunSweep accepted a zero-area point";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("point flat: area side=0 m"), std::string::npos) << what;
  }
}

TEST(SweepTest, RunSweepRejectsAPointWithoutASensingRangeByName) {
  SweepSpec spec;
  spec.title = "bad sweep";
  core::ScenarioConfig config = TinyConfig();
  config.alpha = 5.0;
  config.c2_variant = core::C2Variant::kPaper;
  spec.points.push_back({"steep", config});
  try {
    RunSweep(spec);
    FAIL() << "RunSweep accepted the paper's c2 at alpha=5";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("point steep: the paper's printed c2"), std::string::npos)
        << what;
  }
}

TEST(SweepTest, RenderDelayTablePrintsOneRowPerPoint) {
  // The render phase consumes a plain value — no simulation needed.
  SweepResult result;
  result.title = "test sweep";
  result.parameter_name = "param";
  result.labels = {"A", "B"};
  ComparisonSummary summary;
  summary.addc_delay_ms.mean = 100.0;
  summary.coolest_delay_ms.mean = 250.0;
  summary.delay_ratio = 2.5;
  result.summaries = {summary, summary};
  std::ostringstream out;
  RenderDelayTable(result, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("test sweep"), std::string::npos);
  EXPECT_NE(text.find("| A"), std::string::npos);
  EXPECT_NE(text.find("| B"), std::string::npos);
  EXPECT_NE(text.find("ADDC delay (ms)"), std::string::npos);
  EXPECT_NE(text.find("2.50"), std::string::npos);
}

TEST(BenchOptionsTest, DefaultsAreScaledDown) {
  ClearBenchEnv();
  const BenchOptions options = Resolve({});
  EXPECT_FALSE(options.full_scale);
  EXPECT_EQ(options.base.num_sus, 500);
  EXPECT_EQ(options.base.num_pus, 100);
  EXPECT_EQ(options.repetitions, 3);
  EXPECT_EQ(options.jobs, 0) << "0 = hardware concurrency";
  EXPECT_TRUE(options.json_out.empty());
}

TEST(BenchOptionsTest, FullScaleFlag) {
  ClearBenchEnv();
  const BenchOptions options = Resolve({"--full-scale"});
  EXPECT_TRUE(options.full_scale);
  EXPECT_EQ(options.base.num_sus, 2000);
  EXPECT_EQ(options.repetitions, 10);
}

TEST(BenchOptionsTest, FullScaleEnvFallback) {
  ClearBenchEnv();
  ::setenv("CRN_FULL_SCALE", "1", 1);
  const BenchOptions options = Resolve({});
  EXPECT_TRUE(options.full_scale);
  ClearBenchEnv();
}

TEST(BenchOptionsTest, EnvFallbacksApply) {
  ClearBenchEnv();
  ::setenv("CRN_SCALE", "0.1", 1);
  ::setenv("CRN_REPS", "5", 1);
  ::setenv("CRN_JOBS", "2", 1);
  const BenchOptions options = Resolve({});
  EXPECT_EQ(options.base.num_sus, 200);
  EXPECT_EQ(options.repetitions, 5);
  EXPECT_EQ(options.jobs, 2);
  ClearBenchEnv();
}

TEST(BenchOptionsTest, FlagsOverrideEnvironment) {
  ClearBenchEnv();
  ::setenv("CRN_REPS", "4", 1);
  ::setenv("CRN_JOBS", "2", 1);
  const BenchOptions options =
      Resolve({"--reps=6", "--jobs=3", "--seed=42", "--json-out=out.json"});
  EXPECT_EQ(options.repetitions, 6);
  EXPECT_EQ(options.jobs, 3);
  EXPECT_EQ(options.base.seed, 42u);
  EXPECT_EQ(options.json_out, "out.json");
  ClearBenchEnv();
}

TEST(BenchOptionsTest, GrainFlagAndEnvFallback) {
  ClearBenchEnv();
  EXPECT_EQ(Resolve({}).grain, 0) << "0 = auto (cells / (4 * jobs))";
  ::setenv("CRN_GRAIN", "8", 1);
  EXPECT_EQ(Resolve({}).grain, 8);
  EXPECT_EQ(Resolve({"--grain=3"}).grain, 3) << "flag beats environment";
  ClearBenchEnv();
}

TEST(BenchOptionsTest, HeaderMentionsScaleClaimAndJobs) {
  ClearBenchEnv();
  const BenchOptions options = Resolve({"--jobs=3"});
  std::ostringstream out;
  PrintBenchHeader("Fig. 6(x)", "some claim", options, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Fig. 6(x)"), std::string::npos);
  EXPECT_NE(text.find("some claim"), std::string::npos);
  EXPECT_NE(text.find("scaled-down"), std::string::npos);
  EXPECT_NE(text.find("jobs=3"), std::string::npos);
}

}  // namespace
}  // namespace crn::harness
