// ADDC benchmark binary: runs one named workload as a closed batch, checks
// its outputs, and writes end-to-end metrics (timed, untraced iterations)
// and, with --trace 1, per-layer metrics from a separate traced pass.
//
//   addc_bench --workload NAME --seed N --seconds S --trace 0|1
//              --result-out FILE [--trace-out FILE] [--scale tiny]
//              [--corrupt summary|cell]
//
// One run has three phases:
//   1. witness: the workload once through harness::RunSweep with a
//      MetricsRegistry attached (reference summaries, exact work counts such
//      as scheduler pops, slots and SIR terms, the metrics digest), then
//      every ADDC cell alone with a digest-only auditor (per-cell output
//      checks, the trace digest). It also warms the caches.
//   2. timed iterations, repeated until --seconds have passed: build every
//      distinct geometry (timed as set-up), then the workload through
//      RunSweep with nothing attached (timed as wall). Every iteration's
//      summaries must equal the witness's bit for bit.
//   3. traced pass (--trace 1 only): every layer call is made again from
//      here inside a span — scenario build, the sweep with a RunProfiler,
//      each ADDC cell with a flight recorder, a PU-draw replay, Coolest
//      routing — and the spans go to a Chrome trace written at exit.
// Workload definitions and the layer map are in perfbench/NOTES.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/collection.h"
#include "core/pcr.h"
#include "core/scenario.h"
#include "core/scenario_prefab.h"
#include "graph/cds_tree.h"
#include "graph/unit_disk_graph.h"
#include "harness/json_writer.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "pu/primary_network.h"
#include "routing/coolest.h"
#include "sim/flight_recorder.h"
#include "sim/time.h"

namespace {

using namespace crn;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  // Self-test hook: damage one result so the output checks must trip.
  std::string corrupt;  // "", "summary" or "cell"
  std::string result_out;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "addc_bench: " << problem << "\n"
            << "usage: addc_bench --workload sparse_spectrum|dense_10k|"
               "figure_sweep --seed N --seconds S --trace 0|1 "
               "--result-out FILE [--trace-out FILE] [--scale tiny] "
               "[--corrupt summary|cell]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "tiny") Usage("--scale takes only 'tiny'");
        args.tiny = true;
      } else if (flag == "--result-out") {
        args.result_out = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--corrupt") {
        if (value != "summary" && value != "cell") {
          Usage("--corrupt takes summary or cell");
        }
        args.corrupt = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.result_out.empty()) Usage("--result-out is required");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    Usage("--seconds must be in (0, 600]");
  }
  return args;
}

// --- workloads --------------------------------------------------------------

// A workload is a list of sweeps run one after another; each sweep is one
// RunSweep call. The seed is the only input that varies between runs.
struct Workload {
  std::string name;
  std::vector<harness::SweepSpec> sweeps;
  // Repetitions per point whose geometry the timed set-up builds; a sweep's
  // own repetitions are always built. More than that only where a few
  // deployments cannot give a set-up time that holds from seed to seed.
  std::int32_t setup_repetitions = 0;
};

// Worker threads for the parallel workloads: min(4, nproc).
std::int32_t Workers() {
  return static_cast<std::int32_t>(
      std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
}

harness::SweepSpec Sweep(std::string title, std::int32_t reps,
                         std::int32_t jobs, bool addc_only) {
  harness::SweepSpec spec;
  spec.title = std::move(title);
  spec.parameter_name = spec.title;
  spec.repetitions = reps;
  spec.jobs = jobs;
  spec.addc_only = addc_only;
  return spec;
}

// ROADMAP's alpha=3.5 rung: n=400, N=80 on 111.8 m, p_t=0.3. A spectrum
// opportunity comes once per ~2,000 slots per SU, so slot boundaries (PU
// draws, carrier sensing) carry the run and SIR is almost idle. A full
// collection takes 240 s to 5,500 s of simulated time depending on the
// deployment, so uncapped runs of 20 cells differed 2x in work between
// seeds. Early in a collection every SU contends and carrier sensing costs
// more than the PU draws; as SUs empty their queues the PU draws take over.
// A 1,200 s cap keeps most of that late phase (PU draws ~60% of cell time,
// against ~68% uncapped and ~34% at a 60 s cap) and bounds the longest
// cell. The cost of a cell still differs between deployments, so 40
// repetitions average them. They run on min(4, nproc) workers: on one
// worker, consecutive runs of one seed differed by up to 35% on a shared
// 4-vCPU host, on four by under 10%.
Workload SparseSpectrum(std::uint64_t seed, bool tiny) {
  core::ScenarioConfig config;
  config.num_sus = tiny ? 100 : 400;
  config.num_pus = tiny ? 20 : 80;
  config.area_side = tiny ? 55.9 : 111.8;
  config.alpha = 3.5;
  config.pu_activity = 0.3;
  config.max_sim_time = (tiny ? 20 : 1'200) * sim::kSecond;
  config.seed = seed;
  harness::SweepSpec spec =
      Sweep("sparse_spectrum", tiny ? 1 : 40, Workers(), true);
  spec.points.push_back({"n=" + std::to_string(config.num_sus), config});
  return {"sparse_spectrum", {spec}};
}

// bench_sim_throughput's n=10k rung: Fig. 6 density scaled 5x (n=10,000,
// N=2,000 on 559 m), horizon-capped. Carrier sensing, backoff/freeze, SIR
// and the event core carry the run. Four 5 s cells rather than one 10 s
// cell: the cost per event differs by ~15% between deployments.
// At this density a uniform draw is connected only about one time in six,
// so a deployment is drawn a geometric number of times (1 to 51, mean 6.5,
// over 1,440 deployments) and four builds of one seed took 100-350 ms. The
// set-up therefore times the build of 96 deployments of this shape, the four
// the cells run on among them.
Workload Dense10k(std::uint64_t seed, bool tiny) {
  core::ScenarioConfig config;
  config.num_sus = tiny ? 500 : 10'000;
  config.num_pus = tiny ? 100 : 2'000;
  config.area_side = tiny ? 125.0 : 559.0;
  config.max_sim_time = (tiny ? 1 : 5) * sim::kSecond;
  config.audit_stride = 0;
  config.seed = seed;
  harness::SweepSpec spec = Sweep("dense_10k", tiny ? 1 : 4, 1, true);
  spec.points.push_back({"n=" + std::to_string(config.num_sus), config});
  return {"dense_10k", {spec}, tiny ? 2 : 96};
}

// Paper-artifact regeneration at the benches' default scale (0.25: n=500,
// N=100): ADDC and Coolest cells on three axes, fanned out over
// min(4, nproc) workers.
//   p_t axis (Fig. 6c): one geometry per rep, so prefab-cache hits;
//   n axis (Fig. 6b): a fresh geometry per point, so cache misses;
//   Markov-burst axis (A6): the same pu layer, another activity process.
// Cells are capped at 30 s of simulated time, which p_t >= 0.3 and every n
// point reach: with a 300 s cap, one slow deployment stretched a run 2x
// from seed to seed. Six repetitions average the rest.
Workload FigureSweep(std::uint64_t seed, bool tiny) {
  const std::int32_t jobs = Workers();
  core::ScenarioConfig base = core::ScenarioConfig::ScaledDefaults(
      tiny ? 0.03 : 0.25);
  base.max_sim_time = 30 * sim::kSecond;
  base.seed = seed;
  const std::int32_t reps = tiny ? 1 : 6;

  harness::SweepSpec pt_axis = Sweep("fig6c p_t", reps, jobs, false);
  for (const double pt : {0.1, 0.2, 0.3, 0.4}) {
    core::ScenarioConfig config = base;
    config.pu_activity = pt;
    pt_axis.points.push_back({harness::FormatDouble(pt, 2), config});
  }
  harness::SweepSpec n_axis = Sweep("fig6b n", reps, jobs, false);
  for (const double factor : {1.0, 1.25, 1.5, 1.75}) {
    core::ScenarioConfig config = base;
    config.num_sus =
        static_cast<std::int32_t>(std::lround(base.num_sus * factor));
    n_axis.points.push_back({std::to_string(config.num_sus), config});
  }
  harness::SweepSpec burst_axis = Sweep("A6 burst", reps, jobs, false);
  for (const double burst : {2.0, 4.0, 8.0}) {
    core::ScenarioConfig config = base;
    config.pu_activity_process = pu::ActivityProcess::kMarkov;
    config.pu_mean_burst_slots = burst;
    burst_axis.points.push_back({harness::FormatDouble(burst, 0), config});
  }
  return {"figure_sweep", {pt_axis, n_axis, burst_axis}};
}

std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed, bool tiny) {
  if (name == "sparse_spectrum") return SparseSpectrum(seed, tiny);
  if (name == "dense_10k") return Dense10k(seed, tiny);
  if (name == "figure_sweep") return FigureSweep(seed, tiny);
  return std::nullopt;
}

std::int64_t CellsPerPoint(const harness::SweepSpec& spec) {
  return static_cast<std::int64_t>(spec.repetitions) * (spec.addc_only ? 1 : 2);
}

std::int64_t CellCount(const Workload& workload) {
  std::int64_t cells = 0;
  for (const harness::SweepSpec& spec : workload.sweeps) {
    cells += CellsPerPoint(spec) * static_cast<std::int64_t>(spec.points.size());
  }
  return cells;
}

// --- output checks ----------------------------------------------------------

bool Finite(const core::SampleStats& stats) {
  return std::isfinite(stats.mean) && std::isfinite(stats.stddev) &&
         std::isfinite(stats.min) && std::isfinite(stats.max);
}

bool SameStats(const core::SampleStats& a, const core::SampleStats& b) {
  return a.mean == b.mean && a.stddev == b.stddev && a.min == b.min &&
         a.max == b.max && a.count == b.count;
}

// One point's summary is sound: every field finite, one delay sample per
// repetition, delays non-negative, completions within the repetitions.
bool SummaryOk(const harness::SweepSpec& spec,
               const harness::ComparisonSummary& s) {
  const auto reps = static_cast<std::size_t>(spec.repetitions);
  bool ok = Finite(s.addc_delay_ms) && Finite(s.addc_capacity) &&
            std::isfinite(s.addc_jain_mean) &&
            std::isfinite(s.theorem2_bound_ms_mean) &&
            s.addc_delay_ms.count == reps && s.addc_delay_ms.min >= 0.0 &&
            s.addc_completed >= 0 && s.addc_completed <= spec.repetitions;
  if (!spec.addc_only) {
    ok = ok && Finite(s.coolest_delay_ms) && Finite(s.coolest_capacity) &&
         std::isfinite(s.coolest_jain_mean) && std::isfinite(s.delay_ratio) &&
         s.coolest_delay_ms.count == reps && s.coolest_delay_ms.min >= 0.0 &&
         s.coolest_completed >= 0 && s.coolest_completed <= spec.repetitions;
  }
  return ok;
}

bool SameSummary(const harness::ComparisonSummary& a,
                 const harness::ComparisonSummary& b) {
  return SameStats(a.addc_delay_ms, b.addc_delay_ms) &&
         SameStats(a.coolest_delay_ms, b.coolest_delay_ms) &&
         SameStats(a.addc_capacity, b.addc_capacity) &&
         SameStats(a.coolest_capacity, b.coolest_capacity) &&
         a.addc_completed == b.addc_completed &&
         a.coolest_completed == b.coolest_completed &&
         a.su_caused_violations == b.su_caused_violations;
}

// Cells of `result` that fail a check; with `reference`, a point whose
// summary differs from the reference's fails too (runs are deterministic,
// so any difference is a defect).
std::int64_t FailedCells(const harness::SweepSpec& spec,
                         const harness::SweepResult& result,
                         const harness::SweepResult* reference) {
  if (result.summaries.size() != spec.points.size()) {
    return CellsPerPoint(spec) * static_cast<std::int64_t>(spec.points.size());
  }
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < result.summaries.size(); ++i) {
    const bool ok =
        SummaryOk(spec, result.summaries[i]) &&
        (reference == nullptr ||
         SameSummary(result.summaries[i], reference->summaries[i]));
    if (!ok) failed += CellsPerPoint(spec);
  }
  return failed;
}

// Per-cell checks on one collection run (fault-free, so every created
// packet is either delivered, lost, or still queued at the horizon).
bool CellOk(const core::CollectionResult& r) {
  const mac::MacStats& m = r.mac;
  const bool counts = m.delivered >= 0 && m.packets_lost >= 0 &&
                      m.delivered + m.packets_lost <= m.packets_seeded &&
                      (!r.completed || m.delivered == m.packets_seeded);
  const double fields[] = {r.delay_ms,        r.capacity_fraction,
                           r.jain_delivery_fairness, r.avg_hops,
                           r.delivery_ratio,  r.theory_po,
                           r.measured_po,     r.pcr,
                           r.kappa,           r.theorem1_service_bound_ms,
                           r.theorem2_delay_bound_ms,
                           r.theorem2_capacity_fraction};
  return counts && std::all_of(std::begin(fields), std::end(fields),
                               [](double v) { return std::isfinite(v); });
}

// Simulated seconds the summaries cover: per cell the delay, which is the
// horizon for capped cells.
double SimulatedSeconds(const Workload& workload,
                        const std::vector<harness::SweepResult>& results) {
  double ms = 0.0;
  for (std::size_t s = 0; s < workload.sweeps.size(); ++s) {
    for (const harness::ComparisonSummary& summary : results[s].summaries) {
      ms += summary.addc_delay_ms.mean *
            static_cast<double>(summary.addc_delay_ms.count);
      if (!workload.sweeps[s].addc_only) {
        ms += summary.coolest_delay_ms.mean *
              static_cast<double>(summary.coolest_delay_ms.count);
      }
    }
  }
  return ms / 1e3;
}

// --- registry access --------------------------------------------------------

// Sum of a counter/gauge over all its label sets.
std::int64_t Total(const obs::Snapshot& snapshot, const std::string& name) {
  std::int64_t total = 0;
  for (const obs::SnapshotEntry& entry : snapshot.entries) {
    if (entry.kind == obs::MetricKind::kHistogram) continue;
    if (entry.key == name || entry.key.rfind(name + "{", 0) == 0) {
      total += entry.value;
    }
  }
  return total;
}

const obs::SnapshotEntry* Histogram(const obs::Snapshot& snapshot,
                                    const std::string& name) {
  for (const obs::SnapshotEntry& entry : snapshot.entries) {
    if (entry.kind == obs::MetricKind::kHistogram && entry.key == name) {
      return &entry;
    }
  }
  return nullptr;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

// FNV-1a fold, the scheme RunSweep uses for its per-cell digests.
std::uint64_t Fold(std::uint64_t accumulator, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    accumulator ^= (value >> (8 * byte)) & 0xFFU;
    accumulator *= 0x100000001B3ULL;
  }
  return accumulator;
}

// --- phase 1: witness -------------------------------------------------------

constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;

struct Witness {
  std::vector<harness::SweepResult> results;
  obs::Snapshot counters;
  std::uint64_t trace_digest = kFnvOffsetBasis;
  std::uint64_t metrics_digest = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool threw = false;
};

// The sweeps once through RunSweep with a MetricsRegistry: the reference
// summaries, the exact work counts and the metrics digest. Then every ADDC
// cell again on its own, with an auditor that only computes the trace
// digest: per-cell output checks, and the digest folded per sweep in
// (point, rep) order as RunSweep folds it. (RunSweep's collect_digests
// attaches the full auditor, which costs ~14x the run itself on dense_10k.)
Witness RunWitness(const Workload& workload, bool corrupt_cell) {
  Witness witness;
  obs::MetricsRegistry registry;
  std::int64_t addc_cells = 0;
  std::int64_t addc_completed = 0;
  for (harness::SweepSpec spec : workload.sweeps) {
    spec.metrics = &registry;
    try {
      witness.results.push_back(harness::RunSweep(spec));
    } catch (const std::exception& e) {
      std::cout << "witness: " << spec.title << " threw: " << e.what() << "\n";
      witness.threw = true;
      witness.results.emplace_back();
    }
    witness.attempted += CellsPerPoint(spec) *
                         static_cast<std::int64_t>(spec.points.size());
    witness.failed += FailedCells(spec, witness.results.back(), nullptr);
    for (const harness::ComparisonSummary& summary :
         witness.results.back().summaries) {
      addc_completed += summary.addc_completed;
    }

    const std::int64_t reps = spec.repetitions;
    const std::int64_t count = reps * static_cast<std::int64_t>(spec.points.size());
    std::vector<core::CollectionResult> cells(static_cast<std::size_t>(count));
    std::vector<std::uint64_t> digests(static_cast<std::size_t>(count));
    core::ScenarioPrefabCache prefabs;
    try {
      harness::ParallelRunner(spec.jobs).ForEachIndex(count, [&](std::int64_t i) {
        const core::ScenarioConfig& config =
            spec.points[static_cast<std::size_t>(i / reps)].config;
        const auto rep = static_cast<std::uint64_t>(i % reps);
        const core::Scenario scenario(config, rep, prefabs.Get(config, rep));
        core::AuditReport report;
        core::RunOptions options;
        options.audit_report = &report;
        options.audit.check_event_time = false;
        options.audit.check_min_separation = false;
        options.audit.check_su_sir = false;
        options.audit.check_pu_protection = false;
        options.audit.check_routing = false;
        cells[static_cast<std::size_t>(i)] = core::RunAddc(scenario, options);
        digests[static_cast<std::size_t>(i)] = report.trace_digest;
      });
    } catch (const std::exception& e) {
      std::cout << "witness: " << spec.title << " cell threw: " << e.what()
                << "\n";
      witness.failed += count;
    }
    if (corrupt_cell) {
      cells.front().mac.delivered = cells.front().mac.packets_seeded + 1;
    }
    std::uint64_t sweep_digest = kFnvOffsetBasis;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      sweep_digest = Fold(sweep_digest, digests[i]);
      if (!CellOk(cells[i])) ++witness.failed;
    }
    witness.trace_digest = Fold(witness.trace_digest, sweep_digest);
    witness.attempted += count;
    addc_cells += count;
  }
  witness.counters = registry.Capture(0);
  witness.metrics_digest = registry.Digest();
  // Merged packet accounting over the sweeps' ADDC cells.
  const std::int64_t created = Total(witness.counters, "mac.packets_created_total");
  const std::int64_t delivered =
      Total(witness.counters, "mac.packets_delivered_total");
  const std::int64_t dropped = Total(witness.counters, "mac.packets_dropped_total");
  const bool accounting_ok =
      created > 0 && delivered + dropped <= created &&
      (addc_completed < addc_cells || delivered == created);
  if (!accounting_ok) {
    std::cout << "witness: packet accounting failed (created " << created
              << ", delivered " << delivered << ", dropped " << dropped
              << ")\n";
    witness.failed += addc_cells;
  }
  return witness;
}

// --- phase 2: timed iterations ------------------------------------------------

struct Iteration {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::int64_t failed = 0;
};

struct Geometry {
  core::ScenarioConfig config;
  std::uint64_t rep = 0;
  bool simulated = false;  // a cell runs on it; the rest are set-up only
};

// Distinct geometries the set-up builds, in first-use order.
std::vector<Geometry> Geometries(const Workload& workload) {
  std::vector<Geometry> geometries;
  std::vector<core::PrefabKey> seen;
  for (const harness::SweepSpec& spec : workload.sweeps) {
    const std::int32_t reps =
        std::max(spec.repetitions, workload.setup_repetitions);
    for (const harness::SweepPoint& point : spec.points) {
      for (std::int32_t rep = 0; rep < reps; ++rep) {
        const auto r = static_cast<std::uint64_t>(rep);
        const bool simulated = rep < spec.repetitions;
        const core::PrefabKey key = core::PrefabKey::Of(point.config, r);
        const auto it = std::find(seen.begin(), seen.end(), key);
        if (it != seen.end()) {
          geometries[static_cast<std::size_t>(it - seen.begin())].simulated |=
              simulated;
          continue;
        }
        seen.push_back(key);
        geometries.push_back({point.config, r, simulated});
      }
    }
  }
  return geometries;
}

Iteration RunIteration(const Workload& workload, const Witness& witness,
                       bool corrupt) {
  Iteration it;
  {
    const harness::WallTimer timer;
    for (const Geometry& geometry : Geometries(workload)) {
      core::ScenarioPrefab::Build(geometry.config, geometry.rep);
    }
    it.setup_s = timer.Seconds();
  }
  const harness::WallTimer timer;
  std::vector<harness::SweepResult> results;
  for (const harness::SweepSpec& spec : workload.sweeps) {
    try {
      results.push_back(harness::RunSweep(spec));
    } catch (const std::exception& e) {
      std::cout << "iteration: " << spec.title << " threw: " << e.what() << "\n";
      results.emplace_back();
    }
  }
  it.wall_s = timer.Seconds();
  if (corrupt && !results.front().summaries.empty()) {
    results.front().summaries.front().addc_delay_ms.mean = std::nan("");
  }
  for (std::size_t s = 0; s < workload.sweeps.size(); ++s) {
    it.failed += FailedCells(workload.sweeps[s], results[s],
                             witness.threw ? nullptr : &witness.results[s]);
  }
  return it;
}

// --- phase 3: traced pass ---------------------------------------------------

// In-memory span log: one span per layer call made from this file, each
// with a name, start, end and parent, all under one run id. Written as a
// Chrome trace at exit.
class SpanLog {
 public:
  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  double Now() const { return timer_.Seconds(); }

  std::int64_t Open(std::string name, std::int64_t parent) {
    spans_.push_back({static_cast<std::int64_t>(spans_.size()) + 1, parent,
                      std::move(name), Now(), -1.0, {}});
    return spans_.back().id;
  }

  // Closes span `id` now; returns its duration in seconds.
  double Close(std::int64_t id) {
    Span& span = spans_[static_cast<std::size_t>(id - 1)];
    span.end_s = Now();
    return span.end_s - span.begin_s;
  }

  void Add(std::string name, std::int64_t parent, double begin_s, double end_s,
           std::vector<std::pair<std::string, std::string>> args) {
    spans_.push_back({static_cast<std::int64_t>(spans_.size()) + 1, parent,
                      std::move(name), begin_s, end_s, std::move(args)});
  }

  // Self time of every span name: duration minus the union of its
  // children's intervals (children never overlap a parent's end here, but
  // parallel children may overlap each other).
  std::map<std::string, double> SelfSeconds() const {
    std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
    for (const Span& span : spans_) {
      if (span.parent != 0) {
        children[span.parent].emplace_back(span.begin_s, span.end_s);
      }
    }
    std::map<std::string, double> self;
    for (const Span& span : spans_) {
      double covered = 0.0;
      auto it = children.find(span.id);
      if (it != children.end()) {
        std::vector<std::pair<double, double>> intervals = it->second;
        std::sort(intervals.begin(), intervals.end());
        double reach = span.begin_s;
        for (const auto& [begin, end] : intervals) {
          const double from = std::max(begin, reach);
          if (end > from) covered += end - from;
          reach = std::max(reach, end);
        }
      }
      self[span.name] += (span.end_s - span.begin_s) - covered;
    }
    return self;
  }

  void WriteChromeTrace(
      std::ostream& out,
      const std::vector<std::pair<std::string, std::string>>& per_layer) const {
    std::vector<obs::ChromeTraceEvent> events;
    for (const Span& span : spans_) {
      obs::ChromeTraceEvent event;
      event.name = span.name;
      event.category = "perfbench";
      event.phase = obs::ChromeTraceEvent::Phase::kComplete;
      event.ts_us = span.begin_s * 1e6;
      event.dur_us = (span.end_s - span.begin_s) * 1e6;
      event.args = {{"run_id", run_id_},
                    {"span_id", std::to_string(span.id)},
                    {"parent_id", std::to_string(span.parent)}};
      event.args.insert(event.args.end(), span.args.begin(), span.args.end());
      events.push_back(std::move(event));
    }
    obs::ChromeTraceEvent metrics;
    metrics.name = "perfbench.per_layer";
    metrics.category = "perfbench";
    metrics.phase = obs::ChromeTraceEvent::Phase::kInstant;
    metrics.ts_us = Now() * 1e6;
    metrics.args = per_layer;
    metrics.args.emplace_back("run_id", run_id_);
    events.push_back(std::move(metrics));
    obs::WriteChromeTrace(events, out);
  }

 private:
  struct Span {
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0 = root
    std::string name;
    double begin_s = 0.0;
    double end_s = 0.0;
    std::vector<std::pair<std::string, std::string>> args;
  };
  harness::WallTimer timer_;
  std::string run_id_;
  std::vector<Span> spans_;
};

template <typename Fn>
double InSpan(SpanLog& log, std::string name, std::int64_t parent, Fn&& fn) {
  const std::int64_t id = log.Open(std::move(name), parent);
  fn();
  return log.Close(id);
}

struct Traced {
  double prefab_build_s = 0.0;
  double udg_build_s = 0.0;
  double cds_build_s = 0.0;
  std::int64_t udg_edges = 0;
  std::int64_t pu_slots = 0;
  double pu_resample_s = 0.0;
  std::map<std::string, double> fire_wall_s;  // per event kind
  double addc_traced_s = 0.0;                 // Σ traced RunAddc wall
  double addc_bare_s = 0.0;                   // Σ the same cells untraced
  double loop_self_s = 0.0;
  std::int64_t tx_attempts = 0;
  std::int64_t tx_successes = 0;
  double next_hops_s = 0.0;
  double run_coolest_s = 0.0;
  std::int64_t harness_cells = 0;
  double cell_s_sum = 0.0;
  double cell_s_max = 0.0;
  double idle_s = 0.0;
  double busy_capacity_s = 0.0;  // Σ jobs × sweep wall
  double reduce_s = 0.0;
  std::int64_t steals = 0;
  std::int64_t failed = 0;
  std::int64_t attempted = 0;
  obs::Snapshot counters;
  std::map<std::string, double> self_s;
};

Traced RunTraced(const Workload& workload, const Witness& witness,
                 SpanLog& log) {
  Traced t;
  const std::int64_t root = log.Open("workload." + workload.name, 0);

  // Scenario build: the prefab, then the graph and tree constructors
  // again on the built positions, so each gets its own time.
  std::map<core::PrefabKey, std::shared_ptr<const core::ScenarioPrefab>> prefabs;
  const std::int64_t setup = log.Open("setup", root);
  for (const auto& [config, rep, simulated] : Geometries(workload)) {
    std::shared_ptr<const core::ScenarioPrefab> prefab;
    t.prefab_build_s += InSpan(log, "core.prefab_build", setup, [&] {
      prefab = core::ScenarioPrefab::Build(config, rep);
    });
    std::optional<graph::UnitDiskGraph> udg;
    t.udg_build_s += InSpan(log, "graph.udg_build", setup, [&] {
      udg.emplace(prefab->su_positions, prefab->area, config.su_radius);
    });
    t.cds_build_s += InSpan(log, "graph.cds_build", setup, [&] {
      const graph::CdsTree tree(*udg, 0);
    });
    t.udg_edges += udg->edge_count();
    if (simulated) prefabs.emplace(prefab->key, prefab);
  }
  log.Close(setup);

  // Harness dispatch: the workload's sweeps with a profiler attached.
  for (std::size_t s = 0; s < workload.sweeps.size(); ++s) {
    harness::SweepSpec spec = workload.sweeps[s];
    harness::RunProfiler profiler;
    spec.profiler = &profiler;
    const std::int64_t id = log.Open("harness.run_sweep", root);
    const double begin = log.Now();
    harness::SweepResult result;
    try {
      result = harness::RunSweep(spec);
    } catch (const std::exception& e) {
      std::cout << "traced: " << spec.title << " threw: " << e.what() << "\n";
    }
    const double wall = log.Close(id);
    t.attempted += CellsPerPoint(spec) * static_cast<std::int64_t>(spec.points.size());
    t.failed += FailedCells(spec, result,
                            witness.threw ? nullptr : &witness.results[s]);
    double cells = 0.0;
    for (const harness::RunProfiler::Span& span : profiler.spans()) {
      const double seconds = span.end_s - span.begin_s;
      log.Add("harness." + span.phase, id, begin + span.begin_s,
              begin + span.end_s,
              {{"label", span.label}, {"worker", std::to_string(span.worker)}});
      if (span.phase == "reduce") t.reduce_s += seconds;
      if (span.phase != "cells") continue;
      ++t.harness_cells;
      cells += seconds;
      t.cell_s_max = std::max(t.cell_s_max, seconds);
    }
    t.cell_s_sum += cells;
    t.busy_capacity_s += result.jobs * wall;
    t.idle_s += result.jobs * wall - cells;
    t.steals += result.pool.steals;
  }

  // Every cell again, serially, each layer call in its own span.
  obs::MetricsRegistry merged;
  harness::RunProfiler probe_clock;
  for (const harness::SweepSpec& spec : workload.sweeps) {
    for (const harness::SweepPoint& point : spec.points) {
      for (std::int32_t rep = 0; rep < spec.repetitions; ++rep) {
        const auto r = static_cast<std::uint64_t>(rep);
        const core::Scenario scenario(
            point.config, r, prefabs.at(core::PrefabKey::Of(point.config, r)));

        // The same cell untraced first: the base of the overhead ratio, and
        // attaching the recorder must not change the run.
        core::CollectionResult bare;
        t.addc_bare_s += InSpan(log, "core.run_addc_untraced", root, [&] {
          bare = core::RunAddc(scenario);
        });
        obs::MetricsRegistry registry;
        sim::FlightRecorder recorder;
        harness::AttachFlightRecorderProbe(probe_clock, recorder);
        core::RunOptions options;
        options.metrics = &registry;
        options.metrics_series_stride = 0;
        options.flight_recorder = &recorder;
        core::CollectionResult addc;
        const double wall = InSpan(log, "core.run_addc", root, [&] {
          addc = core::RunAddc(scenario, options);
        });
        ++t.attempted;
        if (!CellOk(addc) || addc.delay_ms != bare.delay_ms ||
            addc.mac.attempts != bare.mac.attempts ||
            addc.mac.delivered != bare.mac.delivered) {
          ++t.failed;
        }
        double fired = 0.0;
        for (std::size_t k = 0; k < recorder.kind_names().size(); ++k) {
          const double seconds =
              recorder.fire_wall_seconds(static_cast<std::uint16_t>(k));
          t.fire_wall_s[recorder.kind_names()[k]] += seconds;
          fired += seconds;
        }
        t.addc_traced_s += wall;
        t.loop_self_s += wall - fired;
        t.tx_attempts += addc.mac.attempts;
        t.tx_successes += addc.mac.outcomes[static_cast<std::size_t>(
            mac::TxOutcome::kSuccess)];
        merged.Merge(registry);

        // PU draws replayed on this cell's own network, as many slots as
        // the run sampled.
        const std::int64_t slots = Total(registry.Capture(0), "mac.slots_total");
        pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
        Rng rng = scenario.MakeRunRng().Stream("perfbench.pu_replay");
        t.pu_resample_s += InSpan(log, "pu.resample", root, [&] {
          for (std::int64_t slot = 0; slot < slots; ++slot) {
            primary.ResampleSlot(rng);
          }
        });
        t.pu_slots += slots;

        if (spec.addc_only) continue;
        const core::ScenarioConfig& config = scenario.config();
        const double range = core::ProperCarrierSensingRange(
            config.MakePcrParams(), config.c2_variant,
            config.baseline_interference_margin);
        std::vector<graph::NodeId> next_hop;
        t.next_hops_s += InSpan(log, "routing.next_hops", root, [&] {
          const std::vector<double> temperatures = routing::NodeTemperatures(
              scenario.su_positions(), primary, range);
          next_hop = routing::CoolestNextHops(scenario.secondary_graph(),
                                              temperatures, scenario.sink(),
                                              spec.metric);
        });
        core::CollectionResult coolest;
        t.run_coolest_s += InSpan(log, "core.run_coolest", root, [&] {
          coolest = core::RunCoolest(scenario, spec.metric);
        });
        ++t.attempted;
        if (!CellOk(coolest) ||
            next_hop.size() != scenario.su_positions().size()) {
          ++t.failed;
        }
      }
    }
  }
  log.Close(root);
  t.counters = merged.Capture(0);
  t.self_s = log.SelfSeconds();
  return t;
}

// --- result assembly --------------------------------------------------------

double FireWall(const Traced& t, const std::string& kind) {
  const auto it = t.fire_wall_s.find(kind);
  return it == t.fire_wall_s.end() ? 0.0 : it->second;
}

// (name, value, unit) triples, in output order.
using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

harness::Json ToJson(const Metrics& metrics) {
  harness::Json json = harness::Json::Object();
  for (const auto& [name, value, unit] : metrics) {
    harness::Json entry = harness::Json::Object();
    entry["value"] = value;
    entry["unit"] = unit;
    json[name] = std::move(entry);
  }
  return json;
}

Metrics PerLayer(const Witness& witness, const Traced& t) {
  const obs::Snapshot& c = t.counters;
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };
  const auto fire = [&t](const std::string& kind) { return FireWall(t, kind); };
  const double pops = count(Total(c, "perf.sched_pops"));
  const obs::SnapshotEntry* active = Histogram(c, "pu.active_per_slot");
  const obs::SnapshotEntry* freezes = Histogram(c, "mac.freeze_time_ns");
  const double hits = count(Total(c, "perf.gain_cache_hits"));
  const double misses = count(Total(c, "perf.gain_cache_misses"));
  return {
      {"core.prefab_build_s", t.prefab_build_s, "s"},
      {"graph.udg_build_s", t.udg_build_s, "s"},
      {"graph.cds_build_s", t.cds_build_s, "s"},
      {"graph.udg_edges", count(t.udg_edges), "count"},
      {"core.prefab_hits", count(Total(witness.counters, "prefab.hits")), "count"},
      {"core.prefab_misses", count(Total(witness.counters, "prefab.misses")),
       "count"},
      {"core.prefab_bytes", count(Total(witness.counters, "prefab.bytes")),
       "bytes"},
      {"pu.slots", count(t.pu_slots), "count"},
      {"pu.resample_s", t.pu_resample_s, "s"},
      {"pu.resample_ns_per_slot", Ratio(t.pu_resample_s * 1e9, count(t.pu_slots)),
       "ns"},
      {"pu.active_per_slot_mean",
       active == nullptr ? 0.0 : Ratio(count(active->sum), count(active->count)),
       "count"},
      {"mac.slot_boundary_s", fire("mac.slot_boundary"), "s"},
      {"mac.backoff_expiry_s", fire("mac.backoff_expiry"), "s"},
      {"mac.tx_end_s", fire("mac.tx_end"), "s"},
      {"mac.post_tx_wait_s", fire("mac.post_tx_wait"), "s"},
      {"mac.sense_s", fire("mac.slot_boundary") - t.pu_resample_s, "s"},
      {"mac.tx_attempts", count(t.tx_attempts), "count"},
      {"mac.success_ratio", Ratio(count(t.tx_successes), count(t.tx_attempts)),
       "ratio"},
      {"mac.freezes", freezes == nullptr ? 0.0 : count(freezes->count), "count"},
      {"mac.slot_defers", count(Total(c, "mac.slot_defers_total")), "count"},
      {"spectrum.sir_evaluations", count(Total(c, "perf.sir_evaluations")),
       "count"},
      {"spectrum.sir_terms", count(Total(c, "perf.sir_terms_evaluated")), "count"},
      {"spectrum.gain_cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"spectrum.skips",
       count(Total(c, "perf.reeval_skipped") + Total(c, "perf.bound_skips")),
       "count"},
      {"sim.events", pops, "count"},
      {"sim.pushes", count(Total(c, "perf.sched_pushes")), "count"},
      {"sim.cancels", count(Total(c, "perf.sched_cancels")), "count"},
      {"sim.stale_ratio", Ratio(count(Total(c, "perf.sched_stale_skips")), pops),
       "ratio"},
      {"sim.bucket_resizes", count(Total(c, "perf.sched_bucket_resizes")),
       "count"},
      {"sim.loop_self_s", t.loop_self_s, "s"},
      {"routing.next_hops_s", t.next_hops_s, "s"},
      {"core.run_coolest_s", t.run_coolest_s, "s"},
      {"harness.cells", count(t.harness_cells), "count"},
      {"harness.cell_s_sum", t.cell_s_sum, "s"},
      {"harness.cell_s_max", t.cell_s_max, "s"},
      {"harness.idle_s", t.idle_s, "s"},
      {"harness.efficiency", Ratio(t.cell_s_sum, t.busy_capacity_s), "ratio"},
      {"harness.reduce_s", t.reduce_s, "s"},
      {"harness.steals", count(t.steals), "count"},
      {"obs.trace_overhead_ratio", Ratio(t.addc_traced_s, t.addc_bare_s),
       "ratio"},
  };
}

// Where the traced time went, as shares of the traced cells (with, on
// figure_sweep, the routing and Coolest calls). The scenario build is
// set-up and is printed apart: on dense_10k it builds more deployments than
// the cells run on.
void PrintShares(const Traced& t) {
  double fired = 0.0;
  for (const auto& [kind, seconds] : t.fire_wall_s) fired += seconds;
  const double slot_boundary = FireWall(t, "mac.slot_boundary");
  const double total = t.addc_traced_s + t.next_hops_s + t.run_coolest_s;
  const std::vector<std::pair<std::string, double>> rows = {
      {"pu draws (pu.resample, replayed)", t.pu_resample_s},
      {"carrier sensing + freeze (mac.sense)", slot_boundary - t.pu_resample_s},
      {"other mac handlers incl. SIR", fired - slot_boundary},
      {"event core (sim.loop_self)", t.loop_self_s},
      {"routing (routing.next_hops)", t.next_hops_s},
      {"coolest cells (core.run_coolest)", t.run_coolest_s},
  };
  std::cout << "| layer | seconds | share |\n|---|---:|---:|\n";
  for (const auto& [layer, seconds] : rows) {
    std::cout << "| " << layer << " | " << harness::FormatDouble(seconds, 3)
              << " | " << harness::FormatDouble(100.0 * Ratio(seconds, total), 1)
              << "% |\n";
  }
  std::cout << "| traced total | " << harness::FormatDouble(total, 3)
            << " | 100% |\n\nset-up, not in the shares: scenario build "
               "(core.prefab_build) "
            << harness::FormatDouble(t.prefab_build_s, 3)
            << " s\n\nspan self time (span minus its child spans):\n";
  for (const auto& [name, seconds] : t.self_s) {
    std::cout << "  " << name << " " << harness::FormatDouble(seconds, 4)
              << " s\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::optional<Workload> made =
      MakeWorkload(args.workload, args.seed, args.tiny);
  if (!made.has_value()) Usage("unknown workload " + args.workload);
  const Workload& workload = *made;
  const std::int64_t cells = CellCount(workload);

  const Witness witness = RunWitness(workload, args.corrupt == "cell");
  std::int64_t attempted = witness.attempted;
  std::int64_t failed = witness.failed;

  std::vector<double> setup_s;
  std::vector<double> wall_s;
  const harness::WallTimer clock;
  while (wall_s.size() < 3 || clock.Seconds() < args.seconds) {
    const Iteration it = RunIteration(workload, witness,
                                      args.corrupt == "summary" && wall_s.empty());
    setup_s.push_back(it.setup_s);
    wall_s.push_back(it.wall_s);
    attempted += cells;
    failed += it.failed;
  }
  const double wall = Median(wall_s);
  const double sim_s = SimulatedSeconds(workload, witness.results);
  const double events = static_cast<double>(Total(witness.counters, "perf.sched_pops"));
  // RSS before the traced pass, whose recorders and registries add to it.
  const double peak_rss_mb = PeakRssMb();

  const Metrics end_to_end = {
      {"wall_s", wall, "s"},
      {"setup_s", Median(setup_s), "s"},
      {"sim_s_per_host_s", Ratio(sim_s, wall), "s/s"},
      {"events_per_s", Ratio(events, wall), "1/s"},
      {"cells_per_s", Ratio(static_cast<double>(cells), wall), "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };

  std::cout << "workload " << workload.name << " seed " << args.seed << ": "
            << cells << " cells/iteration, " << wall_s.size()
            << " timed iterations, simulated " << harness::FormatDouble(sim_s, 1)
            << " s, " << static_cast<std::int64_t>(events) << " events\n";

  Metrics per_layer;
  if (args.trace) {
    SpanLog log(workload.name + ":" + std::to_string(args.seed));
    const Traced traced = RunTraced(workload, witness, log);
    attempted += traced.attempted;
    failed += traced.failed;
    per_layer = PerLayer(witness, traced);
    std::vector<std::pair<std::string, std::string>> trace_args;
    for (const auto& [name, value, unit] : per_layer) {
      trace_args.emplace_back(name, harness::FormatJsonNumber(value) + " " + unit);
    }
    PrintShares(traced);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      log.WriteChromeTrace(out, trace_args);
      if (!out) {
        std::cerr << "addc_bench: cannot write " << args.trace_out << "\n";
        return 1;
      }
    }
  }

  harness::Json result = harness::Json::Object();
  result["workload"] = workload.name;
  result["seed"] = args.seed;
  result["correct"] = failed == 0;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["failed_ratio"] = Ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted));
  result["trace_digest"] = harness::DigestHex(witness.trace_digest);
  result["metrics_digest"] = harness::DigestHex(witness.metrics_digest);
  result["metrics"] = ToJson(end_to_end);
  result["per_layer"] = ToJson(per_layer);
  std::ofstream out(args.result_out);
  result.Dump(out);
  out << "\n";
  if (!out) {
    std::cerr << "addc_bench: cannot write " << args.result_out << "\n";
    return 1;
  }
  return 0;
}
