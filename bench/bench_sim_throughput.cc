// Simulator throughput bench: end-to-end ADDC collection wall time and
// deterministic work accounting (perf.* counters) across network sizes, for
// both interference-field engines (spectrum/interference_field.h).
//
// Three jobs in one binary:
//   1. Verification sweep at the smallest size: the cached and the direct
//      SIR engine run the same scenarios with trace digests on, and the
//      bench FAILS (exit 1) if their digests differ — the bit-identity
//      contract, checked in the artifact itself.
//   2. Per-(n, engine) timing sweeps with audits off: one sweep per cell so
//      wall_seconds and the perf.* counters are attributable to exactly one
//      engine at one size. tools/bench_delta.py compares these sections
//      against bench/baselines/BENCH_sim_throughput.json in CI.
//   3. Horizon-capped scale rungs (n = 10000; n = 100000 under
//      --full-scale): a full collection at these sizes takes minutes of
//      simulated time, so the rung instead runs a fixed sim horizon —
//      timeout by design — keeping wall bounded while still exercising the
//      event core and MAC at scale. Counters stay exact functions of
//      (scenario, seed), so bench_delta budgets apply unchanged.
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

const char* EngineLabel(bool direct) { return direct ? "direct" : "cached"; }

// Looks up one counter in a sweep's captured metric state; 0 when the key
// was never touched (e.g. cache counters under the direct engine).
std::int64_t Metric(const harness::SweepResult& sweep, const std::string& key) {
  for (const auto& [name, value] : sweep.metric_values) {
    if (name == key) return value;
  }
  return 0;
}

std::int64_t EngineMetric(const harness::SweepResult& sweep,
                          const std::string& name, bool direct) {
  return Metric(sweep, name + "{engine=" + EngineLabel(direct) + "}");
}

}  // namespace

int main(int argc, char** argv) {
  const harness::BenchOptions options = harness::ResolveBenchOptions(argc, argv);
  const harness::WallTimer timer;
  harness::RunProfiler profiler;
  harness::PrintBenchHeader(
      "simulator throughput — SIR engine work accounting",
      "cached interference field is bit-identical to direct evaluation "
      "while doing several times fewer SIR term evaluations",
      options, std::cout);

  const std::vector<double> factors = {0.2, 0.8, 3.2};
  std::vector<harness::SweepResult> sweeps;

  // --- 1. Verification sweep: cached vs direct, digests on, smallest n. ---
  obs::MetricsRegistry verify_metrics;
  harness::SweepSpec verify;
  const core::ScenarioConfig smallest = ScaledBy(options.base, factors.front());
  verify.title = "engine verification n=" + std::to_string(smallest.num_sus);
  verify.parameter_name = "engine";
  verify.repetitions = options.repetitions;
  verify.jobs = options.jobs;
  verify.collect_digests = true;
  verify.addc_only = true;
  verify.metrics = &verify_metrics;
  verify.profiler = &profiler;
  for (const bool direct : {false, true}) {
    core::ScenarioConfig config = smallest;
    config.direct_sir_engine = direct;
    verify.points.push_back({EngineLabel(direct), config});
  }
  const harness::SweepResult verified = harness::RunSweep(verify);
  const std::uint64_t cached_digest = verified.summaries[0].addc_trace_digest;
  const std::uint64_t direct_digest = verified.summaries[1].addc_trace_digest;
  const bool digests_match = cached_digest == direct_digest;
  // Identical triggers ⇒ every evaluation the cached engine skips (via the
  // change-epoch or the SIR-bound check) must have been counted:
  // evals(cached) + skips(cached) == evals(direct).
  const std::int64_t cached_evals =
      EngineMetric(verified, "perf.sir_evaluations", false);
  const std::int64_t cached_skipped =
      EngineMetric(verified, "perf.reeval_skipped", false) +
      EngineMetric(verified, "perf.bound_skips", false);
  const std::int64_t direct_evals =
      EngineMetric(verified, "perf.sir_evaluations", true);
  const bool work_invariant = cached_evals + cached_skipped == direct_evals;
  sweeps.push_back(verified);

  // --- 2. Timing sweeps: one per (size, alpha, engine), audits off. The
  // extra alpha=3.5 rung (middle size: non-default alpha changes the
  // interference dynamics and slows the whole simulation, so the largest
  // size would dominate bench wall time) exercises the general std::pow
  // path-loss path alongside the alpha=4 fast path. ---
  struct Rung {
    double factor;
    double alpha;
  };
  std::vector<Rung> rungs;
  for (const double factor : factors) rungs.push_back({factor, 0.0});
  rungs.push_back({factors[1], 3.5});
  harness::Table table({"n", "alpha", "engine", "wall (s)", "SIR evals",
                        "SIR terms", "cache hits", "cache misses", "skips",
                        "bound skips", "PU reuse", "resumes"});
  std::vector<std::string> ratio_lines;
  for (const Rung& rung : rungs) {
    core::ScenarioConfig sized = ScaledBy(options.base, rung.factor);
    std::string alpha_tag;
    if (rung.alpha > 0.0) {
      sized.alpha = rung.alpha;
      alpha_tag = " a" + harness::FormatDouble(rung.alpha, 1);
    }
    std::int64_t terms_by_engine[2] = {0, 0};
    double wall_by_engine[2] = {0.0, 0.0};
    for (const bool direct : {false, true}) {
      obs::MetricsRegistry metrics;
      harness::SweepSpec spec;
      spec.title = "throughput n=" + std::to_string(sized.num_sus) + alpha_tag +
                   " (" + EngineLabel(direct) + ")";
      spec.parameter_name = "n";
      spec.repetitions = options.repetitions;
      spec.jobs = options.jobs;
      spec.addc_only = true;
      spec.metrics = &metrics;
      spec.profiler = &profiler;
      core::ScenarioConfig config = sized;
      config.direct_sir_engine = direct;
      config.audit_stride = 0;  // timing runs: no audit receptions in wall time
      spec.points.push_back({std::to_string(config.num_sus), config});
      const harness::SweepResult result = harness::RunSweep(spec);
      const std::int64_t terms =
          EngineMetric(result, "perf.sir_terms_evaluated", direct);
      terms_by_engine[direct ? 1 : 0] = terms;
      wall_by_engine[direct ? 1 : 0] = result.wall_seconds;
      table.AddRow(
          {std::to_string(sized.num_sus),
           harness::FormatDouble(sized.alpha, 1), EngineLabel(direct),
           harness::FormatDouble(result.wall_seconds, 3),
           std::to_string(EngineMetric(result, "perf.sir_evaluations", direct)),
           std::to_string(terms),
           std::to_string(EngineMetric(result, "perf.gain_cache_hits", direct)),
           std::to_string(
               EngineMetric(result, "perf.gain_cache_misses", direct)),
           std::to_string(EngineMetric(result, "perf.reeval_skipped", direct)),
           std::to_string(EngineMetric(result, "perf.bound_skips", direct)),
           std::to_string(
               EngineMetric(result, "perf.pu_partials_reused", direct)),
           std::to_string(EngineMetric(result, "perf.su_resumes", direct))});
      sweeps.push_back(result);
    }
    const double term_ratio =
        terms_by_engine[0] > 0
            ? static_cast<double>(terms_by_engine[1]) /
                  static_cast<double>(terms_by_engine[0])
            : 0.0;
    const double wall_ratio =
        wall_by_engine[0] > 0.0 ? wall_by_engine[1] / wall_by_engine[0] : 0.0;
    ratio_lines.push_back("n=" + std::to_string(sized.num_sus) + alpha_tag +
                          ": direct/cached SIR terms " +
                          harness::FormatDouble(term_ratio, 2) + "x, wall " +
                          harness::FormatDouble(wall_ratio, 2) + "x");
  }

  // --- 3. Horizon-capped scale rungs (timeout by design; see header). ---
  struct BigRung {
    std::int32_t target_n;
    sim::TimeNs horizon;
  };
  std::vector<BigRung> big_rungs = {{10'000, 10 * sim::kSecond}};
  if (options.full_scale) big_rungs.push_back({100'000, 2 * sim::kSecond});
  for (const BigRung& rung : big_rungs) {
    const double factor =
        static_cast<double>(rung.target_n) /
        static_cast<double>(options.base.num_sus);
    core::ScenarioConfig config = ScaledBy(options.base, factor);
    config.max_sim_time = rung.horizon;
    config.audit_stride = 0;
    obs::MetricsRegistry metrics;
    harness::SweepSpec spec;
    spec.title = "throughput n=" + std::to_string(config.num_sus) +
                 " horizon-capped";
    spec.parameter_name = "n";
    spec.repetitions = options.repetitions;
    spec.jobs = options.jobs;
    spec.addc_only = true;
    spec.metrics = &metrics;
    spec.profiler = &profiler;
    spec.points.push_back({std::to_string(config.num_sus), config});
    const harness::SweepResult result = harness::RunSweep(spec);
    table.AddRow(
        {std::to_string(config.num_sus), harness::FormatDouble(config.alpha, 1),
         "cached", harness::FormatDouble(result.wall_seconds, 3),
         std::to_string(EngineMetric(result, "perf.sir_evaluations", false)),
         std::to_string(EngineMetric(result, "perf.sir_terms_evaluated", false)),
         std::to_string(EngineMetric(result, "perf.gain_cache_hits", false)),
         std::to_string(EngineMetric(result, "perf.gain_cache_misses", false)),
         std::to_string(EngineMetric(result, "perf.reeval_skipped", false)),
         std::to_string(EngineMetric(result, "perf.bound_skips", false)),
         std::to_string(EngineMetric(result, "perf.pu_partials_reused", false)),
         std::to_string(EngineMetric(result, "perf.su_resumes", false))});
    ratio_lines.push_back(
        "n=" + std::to_string(config.num_sus) + " horizon-capped: " +
        harness::FormatDouble(result.wall_seconds, 3) + "s wall, sched pushes " +
        std::to_string(Metric(result, "perf.sched_pushes{scheduler=calendar}")) +
        ", pops " +
        std::to_string(Metric(result, "perf.sched_pops{scheduler=calendar}")));
    sweeps.push_back(result);
  }

  table.PrintMarkdown(std::cout);
  std::cout << "\n";
  for (const std::string& line : ratio_lines) std::cout << line << "\n";
  std::cout << "digest check (cached vs direct, n=" << smallest.num_sus
            << "): " << (digests_match ? "IDENTICAL " : "MISMATCH ")
            << harness::DigestHex(cached_digest) << " vs "
            << harness::DigestHex(direct_digest) << "\n";
  std::cout << "work invariant (evals_cached + skipped == evals_direct): "
            << (work_invariant ? "OK" : "VIOLATED") << " (" << cached_evals
            << " + " << cached_skipped << " vs " << direct_evals << ")\n\n";

  const bool wrote = harness::WriteBenchJson(
      "sim_throughput", options, sweeps, timer.Seconds(), std::cout, &profiler);
  return (wrote && digests_match && work_invariant) ? 0 : 1;
}
