// The parallel engine's contract: a sweep is bit-identical at any jobs
// value. Every cell deploys its own Scenario from (config.seed, rep) and the
// reduction runs in fixed (point, repetition) order, so jobs=4 must
// reproduce the serial engine exactly — summaries and the auditor's trace
// digests both.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/profiler.h"
#include "harness/sweep.h"
#include "obs/metrics.h"

namespace crn::harness {
namespace {

SweepSpec TinySpec(std::int32_t jobs) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.05);
  config.seed = 11;
  SweepSpec spec;
  spec.title = "equivalence";
  spec.parameter_name = "p_t";
  spec.points.push_back({"0.3", config});
  config.pu_activity = 0.2;
  spec.points.push_back({"0.2", config});
  spec.repetitions = 2;
  spec.jobs = jobs;
  spec.collect_digests = true;
  return spec;
}

void ExpectStatsIdentical(const core::SampleStats& a, const core::SampleStats& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.count, b.count);
}

TEST(ParallelSweepTest, SerialAndParallelSweepsAreBitIdentical) {
  const SweepResult serial = RunSweep(TinySpec(1));
  const SweepResult parallel = RunSweep(TinySpec(4));
  EXPECT_EQ(serial.jobs, 1);
  EXPECT_EQ(parallel.jobs, 4);
  EXPECT_EQ(serial.labels, parallel.labels);
  ASSERT_EQ(serial.summaries.size(), parallel.summaries.size());
  for (std::size_t i = 0; i < serial.summaries.size(); ++i) {
    const ComparisonSummary& a = serial.summaries[i];
    const ComparisonSummary& b = parallel.summaries[i];
    ExpectStatsIdentical(a.addc_delay_ms, b.addc_delay_ms);
    ExpectStatsIdentical(a.coolest_delay_ms, b.coolest_delay_ms);
    EXPECT_EQ(a.delay_ratio, b.delay_ratio);
    ExpectStatsIdentical(a.addc_capacity, b.addc_capacity);
    ExpectStatsIdentical(a.coolest_capacity, b.coolest_capacity);
    EXPECT_EQ(a.addc_jain_mean, b.addc_jain_mean);
    EXPECT_EQ(a.coolest_jain_mean, b.coolest_jain_mean);
    EXPECT_EQ(a.addc_completed, b.addc_completed);
    EXPECT_EQ(a.coolest_completed, b.coolest_completed);
    EXPECT_EQ(a.su_caused_violations, b.su_caused_violations);
    EXPECT_EQ(a.theorem2_bound_ms_mean, b.theorem2_bound_ms_mean);
    EXPECT_NE(a.addc_trace_digest, 0u);
    EXPECT_EQ(a.addc_trace_digest, b.addc_trace_digest);
  }
  EXPECT_NE(serial.trace_digest, 0u);
  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);
}

TEST(ParallelSweepTest, MetricsFoldIsBitIdenticalAcrossJobs) {
  // The observability contract on the sweep engine: per-cell registries are
  // merged in fixed (point, rep) order, so the folded state — digest and
  // full snapshot both — cannot depend on the worker count.
  obs::MetricsRegistry serial_metrics;
  obs::MetricsRegistry parallel_metrics;
  SweepSpec serial_spec = TinySpec(1);
  serial_spec.metrics = &serial_metrics;
  SweepSpec parallel_spec = TinySpec(4);
  parallel_spec.metrics = &parallel_metrics;
  const SweepResult serial = RunSweep(serial_spec);
  const SweepResult parallel = RunSweep(parallel_spec);
  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);

  EXPECT_GT(serial_metrics.instrument_count(), 0u);
  EXPECT_NE(serial_metrics.Digest(), 0u);
  EXPECT_EQ(serial_metrics.Digest(), parallel_metrics.Digest());
  const obs::Snapshot a = serial_metrics.Capture(0);
  const obs::Snapshot b = parallel_metrics.Capture(0);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key, b.entries[i].key);
    EXPECT_EQ(a.entries[i].value, b.entries[i].value);
    EXPECT_EQ(a.entries[i].count, b.entries[i].count);
    EXPECT_EQ(a.entries[i].sum, b.entries[i].sum);
    EXPECT_EQ(a.entries[i].buckets, b.entries[i].buckets);
  }

  // Sanity-check the folded totals: 2 points x 2 reps of ADDC cells, each
  // producing one packet per SU (num_sus excludes the base station).
  const std::int64_t produced_per_cell =
      core::ScenarioConfig::ScaledDefaults(0.05).num_sus;
  EXPECT_EQ(serial_metrics.GetCounter("mac.packets_created_total").value(),
            4 * produced_per_cell);
}

TEST(ParallelSweepTest, AddcOnlyPerfCountersAreJobsInvariant) {
  // The bench_sim_throughput contract: an addc_only sweep's captured perf.*
  // counters are pure functions of (scenario, seed) — the same at any jobs
  // value — which is what lets CI compare them against a committed baseline
  // exactly.
  const auto make = [](std::int32_t jobs, obs::MetricsRegistry* metrics) {
    core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.05);
    config.seed = 11;
    SweepSpec spec;
    spec.title = "perf counters";
    spec.parameter_name = "n";
    spec.points.push_back({"n", config});
    spec.repetitions = 2;
    spec.jobs = jobs;
    spec.collect_digests = true;
    spec.addc_only = true;
    spec.metrics = metrics;
    return spec;
  };
  obs::MetricsRegistry serial_metrics;
  obs::MetricsRegistry parallel_metrics;
  const SweepResult serial = RunSweep(make(1, &serial_metrics));
  const SweepResult parallel = RunSweep(make(4, &parallel_metrics));

  // Same scenarios, same digests — at every jobs value.
  ASSERT_EQ(serial.summaries.size(), 1u);
  EXPECT_NE(serial.summaries[0].addc_trace_digest, 0u);
  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);

  // The captured counter state is identical and carries the perf.* keys the
  // bench and tools/bench_delta.py consume.
  ASSERT_EQ(serial.metric_values.size(), parallel.metric_values.size());
  ASSERT_FALSE(serial.metric_values.empty());
  bool saw_cached_terms = false;
  for (std::size_t i = 0; i < serial.metric_values.size(); ++i) {
    EXPECT_EQ(serial.metric_values[i].first, parallel.metric_values[i].first);
    EXPECT_EQ(serial.metric_values[i].second, parallel.metric_values[i].second);
    if (serial.metric_values[i].first ==
        "perf.sir_terms_evaluated{engine=cached}") {
      saw_cached_terms = serial.metric_values[i].second > 0;
    }
  }
  EXPECT_TRUE(saw_cached_terms);
}

TEST(ParallelSweepTest, ProfilerIsObservationOnly) {
  // Attaching the wall-clock profiler must not perturb results or digests,
  // and every cell plus the reduce phase must be covered by spans.
  RunProfiler profiler;
  SweepSpec profiled_spec = TinySpec(4);
  profiled_spec.profiler = &profiler;
  const SweepResult profiled = RunSweep(profiled_spec);
  const SweepResult plain = RunSweep(TinySpec(4));
  EXPECT_EQ(profiled.trace_digest, plain.trace_digest);
  ASSERT_EQ(profiled.summaries.size(), plain.summaries.size());
  for (std::size_t i = 0; i < profiled.summaries.size(); ++i) {
    ExpectStatsIdentical(profiled.summaries[i].addc_delay_ms,
                         plain.summaries[i].addc_delay_ms);
  }

  bool saw_cells = false;
  bool saw_reduce = false;
  std::int64_t cell_count = 0;
  for (const RunProfiler::PhaseStats& stats : profiler.PhaseSummary()) {
    if (stats.phase == "cells") {
      saw_cells = true;
      cell_count = stats.count;
    }
    if (stats.phase == "reduce") saw_reduce = true;
  }
  EXPECT_TRUE(saw_cells);
  EXPECT_TRUE(saw_reduce);
  // 2 points x 2 repetitions x 2 algorithms (ADDC and Coolest).
  EXPECT_EQ(cell_count, 8);
}

TEST(ParallelSweepTest, DigestsAndMetricsArePinnedAcrossJobsAndGrain) {
  // The acceptance matrix for the work-stealing engine: trace digests,
  // metric digests (including the prefab counters), and profiler phase
  // counts must be identical at jobs ∈ {1, 2, 4, 8} and at every grain.
  // jobs=1 is the inline serial reference; everything else must match it.
  const auto run = [](std::int32_t jobs, std::int64_t grain,
                      obs::MetricsRegistry* metrics,
                      RunProfiler* profiler) {
    SweepSpec spec = TinySpec(jobs);
    spec.grain = grain;
    spec.metrics = metrics;
    spec.profiler = profiler;
    return RunSweep(spec);
  };
  obs::MetricsRegistry reference_metrics;
  RunProfiler reference_profiler;
  const SweepResult reference =
      run(1, 0, &reference_metrics, &reference_profiler);
  ASSERT_NE(reference.trace_digest, 0u);

  std::int64_t reference_cells = 0;
  for (const RunProfiler::PhaseStats& stats :
       reference_profiler.PhaseSummary()) {
    if (stats.phase == "cells") reference_cells = stats.count;
  }
  EXPECT_EQ(reference_cells, 8);  // 2 points x 2 reps x 2 algorithms

  for (const std::int32_t jobs : {2, 4, 8}) {
    for (const std::int64_t grain :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2},
          std::int64_t{7}, std::int64_t{1 << 20}}) {
      obs::MetricsRegistry metrics;
      RunProfiler profiler;
      const SweepResult result = run(jobs, grain, &metrics, &profiler);
      EXPECT_EQ(result.trace_digest, reference.trace_digest)
          << "jobs=" << jobs << " grain=" << grain;
      EXPECT_EQ(metrics.Digest(), reference_metrics.Digest())
          << "jobs=" << jobs << " grain=" << grain;
      std::int64_t cells = 0;
      for (const RunProfiler::PhaseStats& stats : profiler.PhaseSummary()) {
        if (stats.phase == "cells") cells = stats.count;
      }
      EXPECT_EQ(cells, reference_cells)
          << "jobs=" << jobs << " grain=" << grain;
    }
  }

  // The prefab counters fold into the registry and are themselves
  // jobs-invariant: 2 distinct (seed, rep) geometries serve all 8 cells,
  // and the bytes are exactly those two prefabs' estimates.
  EXPECT_EQ(reference_metrics.GetCounter("prefab.misses").value(), 2);
  EXPECT_EQ(reference_metrics.GetCounter("prefab.hits").value(), 6);
  const core::ScenarioConfig config = TinySpec(1).points.front().config;
  EXPECT_EQ(reference_metrics.GetCounter("prefab.bytes").value(),
            core::ScenarioPrefab::Build(config, 0)->ApproxBytes() +
                core::ScenarioPrefab::Build(config, 1)->ApproxBytes());
}

// Test-local reference for ComparisonSummary::addc_trace_digest (sweep.h):
// the FNV fold of the per-repetition ADDC trace digests, in repetition
// order.
std::uint64_t FoldRepDigests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t fold = 0xCBF29CE484222325ULL;
  for (const std::uint64_t digest : digests) {
    for (int byte = 0; byte < 8; ++byte) {
      fold ^= (digest >> (8 * byte)) & 0xFFU;
      fold *= 0x100000001B3ULL;
    }
  }
  return fold;
}

TEST(ParallelSweepTest, PrefabCacheDoesNotChangeAnyDigest) {
  // Cells served a shared prefab must simulate exactly what a cell that
  // deploys its own geometry would: every (point, rep) cell is re-run here
  // on a privately built Scenario(config, rep) — no cache involved — and
  // the sweep's per-point digests and delay statistics must match.
  obs::MetricsRegistry metrics;
  SweepSpec spec = TinySpec(4);
  spec.metrics = &metrics;
  const SweepResult cached = RunSweep(spec);
  ASSERT_GT(metrics.GetCounter("prefab.hits").value(), 0);
  ASSERT_EQ(cached.summaries.size(), spec.points.size());
  for (std::size_t point = 0; point < spec.points.size(); ++point) {
    SCOPED_TRACE(spec.points[point].label);
    std::vector<std::uint64_t> digests;
    std::vector<double> addc_delay, coolest_delay;
    for (std::int32_t rep = 0; rep < spec.repetitions; ++rep) {
      const core::Scenario scenario(spec.points[point].config,
                                    static_cast<std::uint64_t>(rep));
      core::AuditReport report;
      core::RunOptions options;
      options.audit_report = &report;
      addc_delay.push_back(core::RunAddc(scenario, options).delay_ms);
      digests.push_back(report.trace_digest);
      coolest_delay.push_back(core::RunCoolest(scenario, spec.metric).delay_ms);
    }
    const ComparisonSummary& summary = cached.summaries[point];
    ASSERT_NE(summary.addc_trace_digest, 0u);
    EXPECT_EQ(summary.addc_trace_digest, FoldRepDigests(digests));
    ExpectStatsIdentical(summary.addc_delay_ms, core::Summarize(addc_delay));
    ExpectStatsIdentical(summary.coolest_delay_ms, core::Summarize(coolest_delay));
  }
}

TEST(ParallelSweepTest, VerifyPrefabsModeRebuildsAndMatchesEveryHit) {
  // The digest-verified equivalence mode from the acceptance criteria:
  // every cache hit rebuilds the geometry from scratch and CRN_CHECKs the
  // GeometryDigest against the shared prefab, as a ctest.
  obs::MetricsRegistry metrics;
  SweepSpec spec = TinySpec(4);
  spec.verify_prefabs = true;
  spec.metrics = &metrics;
  const SweepResult verified = RunSweep(spec);
  const SweepResult plain = RunSweep(TinySpec(4));
  EXPECT_EQ(verified.trace_digest, plain.trace_digest);
  // 8 cells over 2 distinct geometries → 6 hits, each re-verified.
  EXPECT_EQ(metrics.GetCounter("prefab.verified").value(), 6);
}

TEST(ParallelSweepTest, DigestCollectionDoesNotChangeResults) {
  SweepSpec with_digests = TinySpec(1);
  with_digests.points.resize(1);
  with_digests.repetitions = 1;
  SweepSpec without_digests = with_digests;
  without_digests.collect_digests = false;
  const SweepResult audited = RunSweep(with_digests);
  const SweepResult plain = RunSweep(without_digests);
  ExpectStatsIdentical(audited.summaries.front().addc_delay_ms,
                       plain.summaries.front().addc_delay_ms);
  ExpectStatsIdentical(audited.summaries.front().coolest_delay_ms,
                       plain.summaries.front().coolest_delay_ms);
  EXPECT_NE(audited.summaries.front().addc_trace_digest, 0u);
  EXPECT_EQ(plain.summaries.front().addc_trace_digest, 0u);
  EXPECT_EQ(plain.trace_digest, 0u);
}

}  // namespace
}  // namespace crn::harness
