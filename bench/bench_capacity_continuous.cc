// Capacity validation (ours): Theorem 2 is a statement about *capacity* —
// the base station can absorb snapshots at rate Ω(p_o·W/(2β_κ+24β_{κ+1}−1))
// — but Fig. 6 only ever shows single-snapshot delay. This bench runs
// *continuous* collection (a new snapshot every `interval`) and locates the
// sustainability boundary: per-snapshot completion delays stay flat when
// the offered rate is inside capacity and diverge linearly when outside.
//
// The interval sweep is anchored at the measured single-snapshot delay D:
// offered load factor f means interval = D/f, so f < 1 should be
// sustainable (pipelining across snapshots helps) and f >> 1 cannot be.
#include <iostream>
#include <vector>

#include "harness/json_writer.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"
#include "harness/sweep.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace crn;
  harness::BenchOptions options = harness::ResolveBenchOptions(argc, argv);
  // Continuous runs multiply the packet count by the number of rounds;
  // shrink the instance (density preserved) and lighten the PU load so the
  // boundary search stays fast.
  if (!options.full_scale) {
    const std::uint64_t seed = options.base.seed;
    options.base = core::ScenarioConfig::ScaledDefaults(0.1);
    options.base.seed = seed;
  }
  options.base.pu_activity = 0.2;
  const harness::WallTimer timer;
  harness::RunProfiler profiler;
  harness::PrintBenchHeader(
      "Capacity (Theorem 2) — continuous collection sustainability",
      "(ours) snapshot delays stay flat inside capacity, diverge outside",
      options, std::cout);

  // The anchor run is serial: every load factor's interval derives from it.
  const core::Scenario scenario(options.base, 0);
  const core::CollectionResult single = core::RunAddc(scenario);
  std::cout << "single-snapshot delay D = " << harness::FormatDouble(single.delay_ms, 0)
            << " ms; achieved capacity " << harness::FormatDouble(single.capacity_fraction, 4)
            << "·W (Theorem 2 lower bound "
            << harness::FormatDouble(single.theorem2_capacity_fraction, 6) << "·W)\n\n";

  const std::int32_t rounds = 8;
  const double factors[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  std::vector<core::CollectionResult> runs(6);
  const harness::ParallelRunner runner(options.jobs);
  runner.ForEachIndex(6, [&](std::int64_t index) {
    core::RunOptions continuous;
    continuous.snapshot_interval = static_cast<sim::TimeNs>(
        sim::FromMilliseconds(single.delay_ms / factors[index]));
    continuous.snapshot_count = rounds;
    runs[static_cast<std::size_t>(index)] = core::RunAddc(scenario, continuous);
  }, &profiler);

  harness::Table table({"load factor f", "interval (ms)", "mean snapshot delay (ms)",
                        "drift (ms/round)", "sustainable", "achieved rate (·W)"});
  harness::Json series = harness::Json::Array();
  for (std::size_t variant = 0; variant < 6; ++variant) {
    const double factor = factors[variant];
    const auto interval = static_cast<sim::TimeNs>(
        sim::FromMilliseconds(single.delay_ms / factor));
    const core::CollectionResult& run = runs[variant];
    const core::ContinuousResult result = core::SummarizeContinuous(run, interval);
    table.AddRow({harness::FormatDouble(factor, 2),
                  harness::FormatDouble(sim::ToMilliseconds(interval), 0),
                  harness::FormatDouble(result.mean_snapshot_delay_ms, 0),
                  harness::FormatDouble(result.delay_drift_ms_per_round, 1),
                  result.sustainable ? "yes" : "NO",
                  harness::FormatDouble(run.capacity_fraction, 4)});
    harness::Json row = harness::Json::Object();
    row["load_factor"] = factor;
    row["interval_ms"] = sim::ToMilliseconds(interval);
    row["mean_snapshot_delay_ms"] = result.mean_snapshot_delay_ms;
    row["delay_drift_ms_per_round"] = result.delay_drift_ms_per_round;
    row["sustainable"] = result.sustainable;
    row["achieved_rate_w"] = run.capacity_fraction;
    series.Push(std::move(row));
  }
  table.PrintMarkdown(std::cout);
  std::cout << "\n(f ≤ 1: inter-snapshot pipelining keeps delays flat; f > 1: the\n"
               "offered rate exceeds the collection capacity and delay diverges.)\n";

  harness::Json payload = harness::Json::Object();
  payload["single_snapshot_delay_ms"] = single.delay_ms;
  payload["achieved_capacity_w"] = single.capacity_fraction;
  payload["theorem2_capacity_w"] = single.theorem2_capacity_fraction;
  payload["rounds"] = static_cast<std::int64_t>(rounds);
  payload["load_factors"] = std::move(series);
  return harness::WriteBenchJson("capacity_continuous", options,
                                 std::move(payload), timer.Seconds(), std::cout, &profiler)
             ? 0
             : 1;
}
