// Simulator throughput bench: end-to-end ADDC collection wall time and
// deterministic work accounting (perf.* counters) across network sizes
// (spectrum/interference_field.h).
//
// Two jobs in one binary:
//   1. Per-(n, alpha) timing sweeps with audits off: one sweep per cell so
//      wall_seconds and the perf.* counters are attributable to exactly one
//      size. tools/bench_delta.py compares these sections against
//      bench/baselines/BENCH_sim_throughput.json in CI. The " (cached)"
//      title suffix and the engine=cached counter label are kept verbatim
//      so the committed baseline stays comparable.
//   2. Horizon-capped scale rungs (n = 10000; n = 100000 under
//      --full-scale): a full collection at these sizes takes minutes of
//      simulated time, so the rung instead runs a fixed sim horizon —
//      timeout by design — keeping wall bounded while still exercising the
//      event core and MAC at scale. Counters stay exact functions of
//      (scenario, seed), so bench_delta budgets apply unchanged.
//
// The SIR engine's exactness (every memo and skip bit-identical to a
// from-positions recomputation) is proven in ctest by the SIR oracle test
// in tests/mac/, not here.
//
// At the default --scale=0.25 the size ladder {0.2x, 0.8x, 3.2x} of the base
// instance gives n = 100 / 400 / 1600 (density preserved, so connectivity
// and contention stay representative at every rung).
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

// Density-preserving rescale of `base` by `factor` (same law as
// ScenarioConfig::ScaledDefaults): node counts scale linearly, the area
// side by sqrt(factor).
core::ScenarioConfig ScaledBy(const core::ScenarioConfig& base, double factor) {
  core::ScenarioConfig config = base;
  config.num_sus =
      static_cast<std::int32_t>(std::lround(base.num_sus * factor));
  config.num_pus =
      static_cast<std::int32_t>(std::lround(base.num_pus * factor));
  config.area_side = base.area_side * std::sqrt(factor);
  return config;
}

// Looks up one counter in a sweep's captured metric state; 0 when the key
// was never touched.
std::int64_t Metric(const harness::SweepResult& sweep, const std::string& key) {
  for (const auto& [name, value] : sweep.metric_values) {
    if (name == key) return value;
  }
  return 0;
}

std::int64_t SirMetric(const harness::SweepResult& sweep,
                       const std::string& name) {
  return Metric(sweep, name + "{engine=cached}");
}

// One ADDC-only timing sweep of `config` (audits off) with its own
// registry; appends the table row and the sweep section.
harness::SweepResult TimeOne(core::ScenarioConfig config, std::string title,
                             const harness::BenchOptions& options,
                             harness::RunProfiler& profiler,
                             harness::Table& table) {
  config.audit_stride = 0;  // timing runs: no audit receptions in wall time
  obs::MetricsRegistry metrics;
  harness::SweepSpec spec;
  spec.title = std::move(title);
  spec.parameter_name = "n";
  spec.repetitions = options.repetitions;
  spec.jobs = options.jobs;
  spec.addc_only = true;
  spec.metrics = &metrics;
  spec.profiler = &profiler;
  spec.points.push_back({std::to_string(config.num_sus), config});
  harness::SweepResult result = harness::RunSweep(spec);
  table.AddRow(
      {std::to_string(config.num_sus), harness::FormatDouble(config.alpha, 1),
       harness::FormatDouble(result.wall_seconds, 3),
       std::to_string(SirMetric(result, "perf.sir_evaluations")),
       std::to_string(SirMetric(result, "perf.sir_terms_evaluated")),
       std::to_string(SirMetric(result, "perf.gain_cache_hits")),
       std::to_string(SirMetric(result, "perf.gain_cache_misses")),
       std::to_string(SirMetric(result, "perf.reeval_skipped")),
       std::to_string(SirMetric(result, "perf.bound_skips")),
       std::to_string(SirMetric(result, "perf.pu_partials_reused")),
       std::to_string(SirMetric(result, "perf.su_resumes"))});
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::BenchOptions options = harness::ResolveBenchOptions(argc, argv);
  const harness::WallTimer timer;
  harness::RunProfiler profiler;
  harness::PrintBenchHeader(
      "simulator throughput — SIR engine work accounting",
      "the cached interference field's SIR work stays within the committed "
      "perf.* budget at every size",
      options, std::cout);

  std::vector<harness::SweepResult> sweeps;
  harness::Table table({"n", "alpha", "wall (s)", "SIR evals", "SIR terms",
                        "cache hits", "cache misses", "skips", "bound skips",
                        "PU reuse", "resumes"});

  // --- 1. Timing sweeps: one per (size, alpha), audits off. The extra
  // alpha=3.5 rung (middle size: non-default alpha changes the
  // interference dynamics and slows the whole simulation, so the largest
  // size would dominate bench wall time) exercises the general std::pow
  // path-loss path alongside the alpha=4 fast path. ---
  const std::vector<double> factors = {0.2, 0.8, 3.2};
  for (const double factor : factors) {
    const core::ScenarioConfig config = ScaledBy(options.base, factor);
    sweeps.push_back(TimeOne(
        config, "throughput n=" + std::to_string(config.num_sus) + " (cached)",
        options, profiler, table));
  }
  core::ScenarioConfig general_alpha = ScaledBy(options.base, factors[1]);
  general_alpha.alpha = 3.5;
  sweeps.push_back(TimeOne(general_alpha,
                           "throughput n=" +
                               std::to_string(general_alpha.num_sus) +
                               " a3.5 (cached)",
                           options, profiler, table));

  // --- 2. Horizon-capped scale rungs (timeout by design; see header). ---
  struct BigRung {
    std::int32_t target_n;
    sim::TimeNs horizon;
  };
  std::vector<BigRung> big_rungs = {{10'000, 10 * sim::kSecond}};
  if (options.full_scale) big_rungs.push_back({100'000, 2 * sim::kSecond});
  std::vector<std::string> rung_lines;
  for (const BigRung& rung : big_rungs) {
    const double factor =
        static_cast<double>(rung.target_n) /
        static_cast<double>(options.base.num_sus);
    core::ScenarioConfig config = ScaledBy(options.base, factor);
    config.max_sim_time = rung.horizon;
    const harness::SweepResult result = TimeOne(
        config, "throughput n=" + std::to_string(config.num_sus) +
                    " horizon-capped",
        options, profiler, table);
    rung_lines.push_back(
        "n=" + std::to_string(config.num_sus) + " horizon-capped: " +
        harness::FormatDouble(result.wall_seconds, 3) + "s wall, sched pushes " +
        std::to_string(Metric(result, "perf.sched_pushes{scheduler=calendar}")) +
        ", pops " +
        std::to_string(Metric(result, "perf.sched_pops{scheduler=calendar}")));
    sweeps.push_back(result);
  }

  table.PrintMarkdown(std::cout);
  std::cout << "\n";
  for (const std::string& line : rung_lines) std::cout << line << "\n";
  std::cout << "\n";

  const bool wrote = harness::WriteBenchJson(
      "sim_throughput", options, sweeps, timer.Seconds(), std::cout, &profiler);
  return wrote ? 0 : 1;
}
