// Sweep-engine scaling bench: the work-stealing executor with the shared
// scenario-prefab cache (DESIGN.md §15) on a multi-point delay-vs-p_t
// sweep, at jobs in {1, 2, 4}.
//
// Two jobs in one binary:
//   1. Engine verification: a two-point sweep of the same scenario with
//      trace digests on. The two digests must agree (determinism,
//      re-checkable from the artifact by tools/bench_delta.py
//      --verify-digests) — the bench FAILS (exit 1) on any mismatch.
//   2. Strong-scaling rows at jobs in {1, 2, 4}: cells/second on the
//      horizon-capped delay sweep. The sweeps carry the deterministic
//      prefab.* counters (exact functions of the instance, gated 1:1 in
//      CI) and the "pool" scheduling diagnostics (steals budget only —
//      they depend on OS scheduling). The bench fails unless the cache
//      actually shared work (prefab.hits > 0 at jobs=4).
//
// That a cached prefab simulates bit-identically to a per-cell rebuild is
// proven in ctest (ParallelSweepTest.PrefabCacheDoesNotChangeAnyDigest,
// ScenarioPrefabCacheTest), not here.
//
// The cells are horizon-capped (a full collection at this size would
// dominate wall time and dilute what this bench isolates: per-cell setup
// cost). With P points sharing one geometry per repetition, the cache
// builds R geometries instead of P*R.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "harness/json_writer.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace {

using namespace crn;

// Density-preserving rescale (same law as ScenarioConfig::ScaledDefaults).
core::ScenarioConfig ScaledBy(const core::ScenarioConfig& base, double factor) {
  core::ScenarioConfig config = base;
  config.num_sus =
      static_cast<std::int32_t>(std::lround(base.num_sus * factor));
  config.num_pus =
      static_cast<std::int32_t>(std::lround(base.num_pus * factor));
  config.area_side = base.area_side * std::sqrt(factor);
  return config;
}

// The shared workload: a horizon-capped delay-vs-p_t sweep (the Fig. 6(c)
// axis — p_t does not key the prefab, so all points of one repetition share
// a geometry). Digests and sinks are attached by the callers.
harness::SweepSpec DelaySweep(const core::ScenarioConfig& sized,
                              std::int32_t repetitions, std::int32_t jobs,
                              std::int64_t grain) {
  harness::SweepSpec spec;
  spec.parameter_name = "p_t";
  spec.repetitions = repetitions;
  spec.jobs = jobs;
  spec.grain = grain;
  spec.addc_only = true;
  for (const double p_t : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}) {
    core::ScenarioConfig config = sized;
    config.pu_activity = p_t;
    config.max_sim_time = 5 * sim::kMillisecond;  // horizon-capped by design
    config.audit_stride = 0;  // timing runs: no audit receptions in wall time
    spec.points.push_back({harness::FormatDouble(p_t, 1), config});
  }
  return spec;
}

std::int64_t Metric(const harness::SweepResult& sweep, const std::string& key) {
  for (const auto& [name, value] : sweep.metric_values) {
    if (name == key) return value;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::BenchOptions options = harness::ResolveBenchOptions(argc, argv);
  const harness::WallTimer timer;
  harness::RunProfiler profiler;
  harness::PrintBenchHeader(
      "sweep-engine scaling — work stealing + scenario-prefab cache",
      "the work-stealing engine with shared prefabs runs the delay sweep "
      "deterministically and shares one geometry per repetition",
      options, std::cout);

  // The instance: 4x the base scale (the paper's full n = 2000 at the
  // default --scale=0.25), where deployment + UnitDiskGraph + CDS-tree
  // construction dominates a horizon-capped cell.
  const core::ScenarioConfig sized = ScaledBy(options.base, 4.0);
  std::vector<harness::SweepResult> sweeps;

  // --- 1. Engine verification: two identical points, digests on; they
  // must agree (determinism). The title keeps its configuration tag so the
  // committed baseline entry stays comparable. ---
  harness::SweepSpec verify;
  verify.title = "engine verification (stealing+prefab)";
  verify.parameter_name = "run";
  verify.repetitions = options.repetitions;
  verify.jobs = 4;
  verify.grain = options.grain;
  verify.collect_digests = true;
  verify.addc_only = true;
  verify.profiler = &profiler;
  core::ScenarioConfig small = ScaledBy(options.base, 0.2);
  small.max_sim_time = 5 * sim::kMillisecond;
  verify.points.push_back({"first", small});
  verify.points.push_back({"again", small});
  const harness::SweepResult verified = harness::RunSweep(verify);
  const std::uint64_t first_digest = verified.summaries[0].addc_trace_digest;
  const std::uint64_t again_digest = verified.summaries[1].addc_trace_digest;
  const bool digests_match = first_digest != 0 && first_digest == again_digest;
  sweeps.push_back(verified);

  // --- 2. Strong scaling with the prefab cache: cells/sec at jobs 1/2/4. ---
  harness::Table table({"jobs", "cells", "wall (s)", "cells/s", "chunks",
                        "steals", "prefab hits", "prefab misses"});
  std::int64_t prefab_hits = 0;
  for (const std::int32_t jobs : {1, 2, 4}) {
    obs::MetricsRegistry metrics;
    harness::SweepSpec spec =
        DelaySweep(sized, options.repetitions, jobs, options.grain);
    spec.title = "scaling jobs=" + std::to_string(jobs) +
                 " n=" + std::to_string(sized.num_sus);
    spec.metrics = &metrics;
    spec.profiler = &profiler;
    const harness::SweepResult result = harness::RunSweep(spec);
    const double cells_per_second =
        result.wall_seconds > 0.0
            ? static_cast<double>(result.pool.tasks) / result.wall_seconds
            : 0.0;
    prefab_hits = Metric(result, "prefab.hits");
    table.AddRow({std::to_string(jobs), std::to_string(result.pool.tasks),
                  harness::FormatDouble(result.wall_seconds, 3),
                  harness::FormatDouble(cells_per_second, 1),
                  std::to_string(result.pool.chunks),
                  std::to_string(result.pool.steals),
                  std::to_string(prefab_hits),
                  std::to_string(Metric(result, "prefab.misses"))});
    sweeps.push_back(result);
  }

  table.PrintMarkdown(std::cout);
  std::cout << "\n";
  std::cout << "digest check (first vs again): "
            << (digests_match ? "IDENTICAL " : "MISMATCH ")
            << harness::DigestHex(first_digest) << " vs "
            << harness::DigestHex(again_digest) << "\n";
  std::cout << "prefab sharing at jobs=4: " << prefab_hits
            << " cache hits (must be > 0)\n\n";

  const bool wrote = harness::WriteBenchJson(
      "sweep_scaling", options, sweeps, timer.Seconds(), std::cout, &profiler);
  return (wrote && digests_match && prefab_hits > 0) ? 0 : 1;
}
