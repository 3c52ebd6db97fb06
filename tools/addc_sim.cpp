// addc_sim — command-line driver for the full simulator.
//
// Runs ADDC and/or the Coolest baseline on an arbitrary configuration and
// prints a result summary (and optionally a per-transmission CSV trace).
//
//   addc_sim --help
//   addc_sim --n=500 --pt=0.2 --reps=3
//   addc_sim --algorithm=both --n=300 --num-pus=60 --area=100
//   addc_sim --algorithm=addc --trace=/tmp/run.csv --seed=7
//   addc_sim --continuous-interval-ms=5000 --snapshots=6
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/env.h"
#include "core/collection.h"
#include "core/pcr.h"
#include "core/scenario.h"
#include "faults/fault_plan.h"
#include "harness/atomic_file.h"
#include "harness/flags.h"
#include "harness/obs_export.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"
#include "harness/svg_export.h"
#include "harness/sweep_journal.h"
#include "harness/table.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "pu/primary_network.h"
#include "sim/checkpoint.h"

namespace {

using namespace crn;

// Flight-recorder ring cap: 2^24 records of 32 bytes is 512 MiB.
constexpr std::int64_t kMaxFlightRecorderDepth = std::int64_t{1} << 24;

constexpr const char* kHelp = R"(addc_sim — ADDC / Coolest CRN data-collection simulator

Scenario (defaults: the paper's Fig. 6 configuration scaled by --scale):
  --scale=F               density-preserving scale factor (default 0.25)
  --n=INT                 number of SUs (overrides scale)
  --area=F                area side in meters (overrides scale)
  --num-pus=INT           number of PUs (overrides scale)
  --pt=F                  PU per-slot activity p_t (default 0.3)
  --pu-burst=F            Markov mean burst slots (0 = i.i.d., default 0)
  --alpha=F               path-loss exponent (default 4.0)
  --pu-power=F --su-power=F --pu-radius=F --su-radius=F
  --eta-p-db=F --eta-s-db=F
  --c2=paper|corrected    PCR constant variant (default paper; see DESIGN.md)
  --fairness=BOOL         Algorithm 1 line-12 wait (default true)
  --seed=INT --reps=INT   reproducibility (defaults 0x5EEDADDC, 1)

Execution:
  --algorithm=addc|coolest|both   (default both)
  --metric=accumulated|highest|mixed   Coolest metric (default accumulated)
  --jobs=INT              run repetitions in parallel (default 1 = serial;
                          0 = hardware concurrency). Output is bit-identical
                          to serial with every other flag.
  --grain=INT             repetitions per work-stealing chunk (default 0 =
                          auto, reps / (4 * jobs) floored at 1). Any value
                          produces identical output — grain only trades
                          scheduling overhead against steal balance. Env
                          fallback: CRN_GRAIN.
  --continuous-interval-ms=F      run continuous collection: a new snapshot
                                  every F ms (ADDC only; --algorithm=both
                                  runs its ADDC half, coolest exits 2)
  --snapshots=INT                 rounds for continuous mode (default 6)
  --faults=FILE           inject the fault plan in FILE into every ADDC run
                          (crashes + self-healing repair, sensing bursts, PU
                          perturbation — format in DESIGN.md §9). Reproducible
                          from --seed; per-rep fault summaries are printed when
                          faults actually fired. Combine with --audit to
                          re-verify routing acyclicity after every repair.
  --audit                         attach the runtime invariant auditor to every
                                  ADDC run (prints the report; also dual-runs
                                  rep 0 to verify trace-digest determinism);
                                  exits 1 on any violation
  --trace=FILE                    write every transmission attempt of rep 0's
                                  ADDC run as CSV; the run honours every
                                  scenario flag and composes with --audit,
                                  --faults, --metrics-out, --trace-out and
                                  --flight-recorder-out
  --trace-out=FILE                write packet-lifecycle spans (rep 0, ADDC) as
                                  Chrome trace-event JSON — load the file in
                                  Perfetto / chrome://tracing
  --metrics-out=FILE              write the metrics registry (ADDC runs, merged
                                  over reps in rep order) as JSON
  --flight-recorder-out=FILE      record every scheduler action of rep 0's ADDC
                                  run (arm/reschedule/disarm/fire with causal
                                  parent links) into a binary flight dump —
                                  decode with crn_trace
  --flight-recorder-depth=INT     flight-recorder ring capacity in records
                                  (default 65536, 1 to 16777216; older records
                                  are overwritten)
  --metrics-stride=INT            slots between series snapshots in the metrics
                                  JSON (default 1024; 0 = final state only)
  --svg=FILE                      render the deployment + CDS tree as SVG
  --csv                           machine-readable result rows

Checkpoint / restore (DESIGN.md §14; one ADDC snapshot rep only):
  --checkpoint-out=FILE   serialize the full run state to FILE at every
                          checkpoint boundary (atomic write-temp-then-rename,
                          CRNCKPT1 format); requires --algorithm=addc and
                          --reps=1, and no --trace/--trace-out/
                          --continuous-interval-ms/--journal
  --checkpoint-every-events=INT   events between checkpoints (default 100000,
                          at least 1)
  --restore=FILE          resume from a checkpoint written by
                          --checkpoint-out. Pass the same scenario flags and
                          attachment set as the checkpointed run — mismatches
                          are rejected with an error. Checkpoint/restore runs
                          print `digest: trace=<hex> metrics=<hex>`; a
                          resumed run's digests are bit-identical to the
                          uninterrupted run's
  --crash-after-events=INT  test hook for the crash-recovery soak: SIGKILL
                          this process at the first checkpoint boundary at or
                          after INT events, *before* that checkpoint is
                          written (the on-disk file stays the previous one;
                          0 = never, the default)

Sweep journal (crash-safe repetition fan-out):
  --journal=DIR           record one atomic completion record per repetition
                          into DIR (any --jobs value; incompatible with
                          --metrics-out/--trace/--trace-out/
                          --flight-recorder-out)
  --resume                with --journal: skip repetitions whose records
                          validate, replaying their stored output instead of
                          re-running them

Exit status: 0 every run completed; 1 --audit found a violation or a
digest divergence; 2 invalid input; 3 a run hit the simulation horizon
(TIMED OUT row) with a clean audit — a censored result, not a failure.
)";

void PrintResultRow(const core::CollectionResult& r, bool csv,
                    std::ostream& out = std::cout) {
  if (csv) {
    out << r.algorithm << "," << (r.completed ? 1 : 0) << "," << r.delay_ms
        << "," << r.capacity_fraction << "," << r.avg_hops << ","
        << r.jain_delivery_fairness << "," << r.mac.attempts << ","
        << r.mac.su_caused_violations << "\n";
    return;
  }
  out << r.algorithm << ": " << (r.completed ? "completed" : "TIMED OUT")
      << " in " << r.delay_ms << " ms, capacity "
      << harness::FormatDouble(r.capacity_fraction, 4) << "·W, avg hops "
      << harness::FormatDouble(r.avg_hops, 2) << ", Jain "
      << harness::FormatDouble(r.jain_delivery_fairness, 3) << ", "
      << r.mac.attempts << " attempts, " << r.mac.su_caused_violations
      << " PU violations\n";
}

// Atomic artifact write with the CLI's error convention (message + exit 2).
bool WriteArtifactOrComplain(const std::string& path, std::string_view bytes) {
  std::string error;
  if (!crn::harness::WriteFileAtomic(path, bytes, &error)) {
    std::cerr << "error: " << error << "\n";
    return false;
  }
  return true;
}

// Enumerated flags: a misspelt value must not silently run the default.
// Prints the allowed values and returns false when `value` is not one.
bool IsOneOf(const char* flag, const std::string& value,
             std::initializer_list<std::string_view> allowed) {
  for (const std::string_view choice : allowed) {
    if (value == choice) return true;
  }
  std::cerr << "error: --" << flag << "=" << value << " is not one of";
  for (const std::string_view choice : allowed) std::cerr << " " << choice;
  std::cerr << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  harness::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::cout << kHelp;
    // Consume everything so --help never reports unknown flags.
    return 0;
  }

  constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
  const double scale = flags.GetDouble("scale", 0.25);
  if (!(scale > 0.0 && scale <= 1.0)) {
    std::cerr << "error: --scale=" << scale << " must be in (0, 1]\n";
    return 2;
  }
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(scale);
  // Only the int32 range here: the geometry check below names n <= 0 and
  // N < 0 in the model's terms.
  config.num_sus = static_cast<std::int32_t>(
      flags.GetIntInRange("n", config.num_sus, kInt32Min, kInt32Max));
  config.area_side = flags.GetDouble("area", config.area_side);
  config.num_pus = static_cast<std::int32_t>(
      flags.GetIntInRange("num-pus", config.num_pus, kInt32Min, kInt32Max));
  config.pu_activity = flags.GetDouble("pt", config.pu_activity);
  config.alpha = flags.GetDouble("alpha", config.alpha);
  config.pu_power = flags.GetDouble("pu-power", config.pu_power);
  config.su_power = flags.GetDouble("su-power", config.su_power);
  config.pu_radius = flags.GetDouble("pu-radius", config.pu_radius);
  config.su_radius = flags.GetDouble("su-radius", config.su_radius);
  config.eta_p_db = flags.GetDouble("eta-p-db", config.eta_p_db);
  config.eta_s_db = flags.GetDouble("eta-s-db", config.eta_s_db);
  config.fairness_wait = flags.GetBool("fairness", config.fairness_wait);
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 0x5EEDADDCLL));
  const double burst = flags.GetDouble("pu-burst", 0.0);
  if (burst > 0.0) {
    config.pu_activity_process = pu::ActivityProcess::kMarkov;
    config.pu_mean_burst_slots = burst;
  }
  const std::string c2 = flags.GetString("c2", "paper");
  config.c2_variant =
      c2 == "corrected" ? core::C2Variant::kCorrected : core::C2Variant::kPaper;

  const std::string algorithm = flags.GetString("algorithm", "both");
  const std::string metric_name = flags.GetString("metric", "accumulated");
  routing::TemperatureMetric metric = routing::TemperatureMetric::kAccumulated;
  if (metric_name == "highest") metric = routing::TemperatureMetric::kHighest;
  if (metric_name == "mixed") metric = routing::TemperatureMetric::kMixed;

  const auto reps =
      static_cast<std::int32_t>(flags.GetIntInRange("reps", 1, 1, kInt32Max));
  const auto jobs =
      static_cast<std::int32_t>(flags.GetIntInRange("jobs", 1, 0, kInt32Max));
  const std::int64_t grain = flags.GetIntInRange(
      "grain", crn::GetEnvInt("CRN_GRAIN", 0), 0, kInt64Max);
  const bool csv = flags.GetBool("csv", false);
  const bool audit = flags.GetBool("audit", false);
  const std::string trace_path = flags.GetString("trace", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string flight_out = flags.GetString("flight-recorder-out", "");
  const auto flight_depth = static_cast<std::size_t>(flags.GetIntInRange(
      "flight-recorder-depth", 1 << 16, 1, kMaxFlightRecorderDepth));
  const auto metrics_stride = static_cast<std::int32_t>(
      flags.GetIntInRange("metrics-stride", 1024, 0, kInt32Max));
  const std::string svg_path = flags.GetString("svg", "");
  const double continuous_ms = flags.GetDouble("continuous-interval-ms", 0.0);
  const auto snapshots = static_cast<std::int32_t>(
      flags.GetIntInRange("snapshots", 6, 1, kInt32Max));
  const std::string faults_path = flags.GetString("faults", "");
  const std::string checkpoint_out = flags.GetString("checkpoint-out", "");
  const std::string restore_path = flags.GetString("restore", "");
  const std::int64_t checkpoint_every =
      flags.GetIntInRange("checkpoint-every-events", 100000, 1, kInt64Max);
  const std::int64_t crash_after =
      flags.GetIntInRange("crash-after-events", 0, 0, kInt64Max);
  const std::string journal_dir = flags.GetString("journal", "");
  const bool resume = flags.GetBool("resume", false);

  if (!flags.errors().empty() || !flags.UnconsumedFlags().empty()) {
    for (const std::string& error : flags.errors()) {
      std::cerr << "error: " << error << "\n";
    }
    for (const std::string& unknown : flags.UnconsumedFlags()) {
      std::cerr << "error: unknown flag " << unknown << "\n";
    }
    std::cerr << "run with --help for usage\n";
    return 2;
  }
  if (!IsOneOf("c2", c2, {"paper", "corrected"}) ||
      !IsOneOf("algorithm", algorithm, {"addc", "coolest", "both"}) ||
      !IsOneOf("metric", metric_name, {"accumulated", "highest", "mixed"})) {
    return 2;
  }
  if (flags.Has("continuous-interval-ms") && !(continuous_ms > 0.0)) {
    std::cerr << "error: --continuous-interval-ms=" << continuous_ms
              << " must be positive (omit it for a snapshot run)\n";
    return 2;
  }
  if (!(burst >= 0.0)) {
    std::cerr << "error: --pu-burst=" << burst
              << " must be 0 (i.i.d. activity) or a mean burst of at least 1 slot\n";
    return 2;
  }
  // The model's own checks, each named with the flags that feed it, reject
  // bad input here instead of failing a contract check mid-run.
  for (const auto& [settings, error] : {
           std::pair{"secondary-network settings (--n, --area, --su-radius, "
                     "--scale)",
                     core::ScenarioGeometryError(config)},
           std::pair{"primary-network settings (--pt, --pu-burst, --num-pus, "
                     "--pu-power, --pu-radius)",
                     pu::PrimaryConfigError(config.MakePrimaryConfig())},
           std::pair{"carrier-sensing settings (--alpha, --c2, --pu-power, "
                     "--su-power, --pu-radius, --su-radius)",
                     core::PcrParamsError(config.MakePcrParams(),
                                          config.c2_variant)}}) {
    if (!error.empty()) {
      std::cerr << "error: invalid " << settings << ": " << error << "\n";
      return 2;
    }
  }
  const bool continuous = continuous_ms > 0.0;
  const bool run_addc = algorithm != "coolest";
  // Continuous collection is an ADDC workload; --algorithm=both runs only
  // its ADDC half there.
  const bool run_coolest = algorithm != "addc" && !continuous;
  const bool tracing = !trace_path.empty() || !trace_out.empty();
  if (!run_addc && (continuous || !trace_path.empty())) {
    std::cerr << "error: --continuous-interval-ms and --trace run ADDC; use "
                 "--algorithm=addc or --algorithm=both\n";
    return 2;
  }
  // Checkpoint/restore runs print `digest:` lines, the bit-identity witness
  // between an uninterrupted run and a resumed one; the auditor (trace
  // digest) and a registry (metrics digest) always attach to them.
  const bool digest_line = !checkpoint_out.empty() || !restore_path.empty();
  std::string restore_blob;
  if (digest_line) {
    if (algorithm != "addc" || reps != 1 || continuous || tracing ||
        !journal_dir.empty()) {
      std::cerr << "error: --checkpoint-out/--restore support exactly one "
                   "ADDC snapshot repetition (--algorithm=addc --reps=1) "
                   "without --trace/--trace-out/--continuous-interval-ms/"
                   "--journal\n";
      return 2;
    }
    if (!restore_path.empty()) {
      std::ifstream in(restore_path, std::ios::binary);
      if (!in) {
        std::cerr << "error: cannot read checkpoint " << restore_path << "\n";
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      restore_blob = buffer.str();
      // A corrupt file or another format version is an input error: report
      // it and exit 2 rather than failing inside the restore.
      const sim::StateReader envelope(restore_blob);
      if (!envelope.ok()) {
        std::cerr << "error: " << restore_path << ": " << envelope.error()
                  << "\n";
        return 2;
      }
    }
  }
  if (!journal_dir.empty()) {
    if (!metrics_out.empty() || tracing || !flight_out.empty()) {
      std::cerr << "error: --journal is incompatible with --metrics-out/"
                   "--trace/--trace-out/--flight-recorder-out\n";
      return 2;
    }
  } else if (resume) {
    std::cerr << "error: --resume requires --journal\n";
    return 2;
  }

  // Every repetition's geometry, built once up front: a sub-critical density
  // shows only when drawing, and is bad input like a bad flag.
  std::vector<std::shared_ptr<const core::ScenarioPrefab>> prefabs;
  for (std::int32_t rep = 0; rep < reps; ++rep) {
    std::string error;
    prefabs.push_back(core::ScenarioPrefab::TryBuild(config, rep, &error));
    if (prefabs.back() == nullptr) {
      std::cerr << "error: repetition " << rep << ": " << error << "\n";
      return 2;
    }
  }

  faults::FaultPlan fault_plan;
  if (!faults_path.empty()) fault_plan = faults::LoadPlanFile(faults_path);

  if (csv) {
    std::cout << "algorithm,completed,delay_ms,capacity_fraction,avg_hops,jain,"
                 "attempts,pu_violations\n";
  }

  // The span tracer and flight recorder watch rep 0's ADDC run only, so no
  // two cells share a sink at any --jobs. The profiler supplies the
  // recorder's wall probe for the per-kind fire wall lines.
  obs::PacketSpanTracer span_tracer;
  std::optional<sim::FlightRecorder> flight_recorder;
  harness::RunProfiler flight_clock;
  if (!flight_out.empty()) {
    flight_recorder.emplace(flight_depth);
    harness::AttachFlightRecorderProbe(flight_clock, *flight_recorder);
  }

  // Every repetition is one independent cell (the Scenario is a pure
  // function of (config, rep)) on a ParallelRunner, which runs jobs=1
  // inline; the blocks print afterwards in repetition order, so stdout is
  // bit-identical at any --jobs.
  struct RepOutcome {
    double pcr = 0.0;
    std::optional<core::CollectionResult> addc;
    std::optional<core::CollectionResult> coolest;
    core::AuditReport audit_report;
    core::DeterminismReport determinism;
    faults::FaultReport fault_report;
    // Per-repetition registry: merged in rep order after the fan-out.
    obs::MetricsRegistry metrics;
  };
  std::vector<RepOutcome> outcomes(static_cast<std::size_t>(reps));
  const auto run_rep = [&](std::int64_t rep) {
    RepOutcome& outcome = outcomes[static_cast<std::size_t>(rep)];
    const core::Scenario scenario(config, static_cast<std::uint64_t>(rep),
                                  prefabs[static_cast<std::size_t>(rep)]);
    outcome.pcr = scenario.pcr();
    if (run_addc) {
      core::RunOptions options;
      if (continuous) {
        options.snapshot_interval = sim::FromMilliseconds(continuous_ms);
        options.snapshot_count = snapshots;
      }
      if (audit || digest_line) options.audit_report = &outcome.audit_report;
      if (!faults_path.empty()) {
        options.faults = &fault_plan;
        options.fault_report = &outcome.fault_report;
      }
      if (!metrics_out.empty() || digest_line) {
        options.metrics = &outcome.metrics;
        // Counters/histograms fold across every rep, but the time series
        // is one run's timeline: only rep 0 records points, so the merged
        // document's series stays monotone in sim-time.
        options.metrics_series_stride = rep == 0 ? metrics_stride : 0;
      }
      if (rep == 0) {
        if (tracing) options.spans = &span_tracer;
        if (flight_recorder.has_value()) options.flight_recorder = &*flight_recorder;
        if (!restore_path.empty()) options.restore_blob = &restore_blob;
      }
      if (!checkpoint_out.empty()) {
        options.checkpoint_every_events = checkpoint_every;
        options.checkpoint_sink = [&](const std::string& blob,
                                      std::uint64_t events) {
          if (crash_after > 0 &&
              events >= static_cast<std::uint64_t>(crash_after)) {
            // Crash-soak hook: die *before* persisting, so recovery resumes
            // from the previous on-disk checkpoint — the worst honest crash.
            std::raise(SIGKILL);
          }
          if (!WriteArtifactOrComplain(checkpoint_out, blob)) std::exit(2);
          if (!csv) {
            std::cout << "checkpoint: " << checkpoint_out << " at event "
                      << events << " (" << blob.size() << " bytes)\n";
          }
        };
      }
      outcome.addc = core::RunAddc(scenario, options);
      // Checkpoint/restore runs print their digest line instead.
      if (audit && rep == 0 && !digest_line) {
        // Sinkless dual run: re-attaching the tracer, registry, or flight
        // recorder would double-count rep 0 (the check itself is
        // observation-free).
        core::RunOptions recheck = options;
        recheck.metrics = nullptr;
        recheck.spans = nullptr;
        recheck.flight_recorder = nullptr;
        outcome.determinism = core::CheckAddcDeterminism(scenario, recheck);
      }
    }
    if (run_coolest) outcome.coolest = core::RunCoolest(scenario, metric);
  };

  // One repetition's output block plus the bits that feed the exit code.
  // The same renderer serves direct printing and the journal payload, so
  // a replayed repetition prints byte-identically to a fresh one.
  struct RepBlock {
    std::string text;
    bool completed = true;
    bool audit_ok = true;
  };
  const auto render_block = [&](std::int64_t rep) {
    const RepOutcome& outcome = outcomes[static_cast<std::size_t>(rep)];
    RepBlock block;
    std::ostringstream out;
    if (!csv) {
      out << "== rep " << rep << " (n=" << config.num_sus
          << ", N=" << config.num_pus << ", p_t=" << config.pu_activity
          << ", PCR=" << harness::FormatDouble(outcome.pcr, 2) << " m) ==\n";
    }
    if (outcome.addc.has_value()) {
      const core::CollectionResult& addc = *outcome.addc;
      block.completed &= addc.completed;
      PrintResultRow(addc, csv, out);
      if (continuous && !csv) {
        const core::ContinuousResult summary = core::SummarizeContinuous(
            addc, sim::FromMilliseconds(continuous_ms));
        out << "  snapshot delays (ms):";
        for (const double d : addc.snapshot_delay_ms) {
          out << " " << harness::FormatDouble(d, 0);
        }
        out << "\n  drift "
            << harness::FormatDouble(summary.delay_drift_ms_per_round, 1)
            << " ms/round — "
            << (summary.sustainable ? "sustainable" : "NOT sustainable") << "\n";
      }
      // Plans whose compiled timeline is empty leave stdout untouched —
      // part of the empty-plan byte-identity contract.
      if (!csv && outcome.fault_report.injected_total() > 0) {
        out << "  faults: " << outcome.fault_report.Summary() << "; delivery "
            << harness::FormatDouble(addc.delivery_ratio, 4) << "\n";
      }
      if (audit) {
        block.audit_ok &= outcome.audit_report.ok();
        if (!csv) {
          out << "  audit: " << outcome.audit_report.Summary() << "\n";
          for (const std::string& violation :
               outcome.audit_report.first_violations) {
            out << "    violation: " << violation << "\n";
          }
          // Violation forensics: the causal event history leading into the
          // first violation, captured from the flight recorder.
          if (!outcome.audit_report.flight_trail.empty()) {
            out << "  " << outcome.audit_report.flight_trail;
          }
        }
        if (rep == 0 && !digest_line) {
          block.audit_ok &= outcome.determinism.identical;
          if (!csv) {
            out << "  determinism: dual-run digests "
                << (outcome.determinism.identical ? "identical" : "DIVERGED")
                << " (" << std::hex << outcome.determinism.first_digest
                << " vs " << outcome.determinism.second_digest << std::dec
                << ")\n";
          }
        }
      }
      if (digest_line) {
        // The bit-identity witness: CI diffs this line between an
        // uninterrupted run and a kill+resume chain.
        out << "digest: trace=" << std::hex << outcome.audit_report.trace_digest
            << " metrics=" << outcome.metrics.Digest() << std::dec << "\n";
      }
    }
    if (outcome.coolest.has_value()) {
      block.completed &= outcome.coolest->completed;
      PrintResultRow(*outcome.coolest, csv, out);
    }
    block.text = out.str();
    return block;
  };

  std::vector<RepBlock> blocks(static_cast<std::size_t>(reps));
  const harness::ParallelRunner runner(jobs, grain);
  if (journal_dir.empty()) {
    runner.ForEachIndex(reps, [&](std::int64_t rep) {
      run_rep(rep);
      blocks[static_cast<std::size_t>(rep)] = render_block(rep);
    });
  } else {
    // The fingerprint pins every knob that shapes a cell's output: a
    // journal from a different experiment reads as empty, never as
    // replayable results.
    std::ostringstream fp;
    fp << "addc_sim v1 seed=" << config.seed << " n=" << config.num_sus
       << " N=" << config.num_pus << " area=" << config.area_side
       << " pt=" << config.pu_activity
       << " burst=" << config.pu_mean_burst_slots
       << " alpha=" << config.alpha << " c2=" << c2
       << " pu_power=" << config.pu_power << " su_power=" << config.su_power
       << " pu_radius=" << config.pu_radius
       << " su_radius=" << config.su_radius << " eta_p=" << config.eta_p_db
       << " eta_s=" << config.eta_s_db
       << " fairness=" << config.fairness_wait
       << " algorithm=" << algorithm << " metric=" << metric_name
       << " reps=" << reps << " csv=" << csv << " audit=" << audit
       << " faults=" << faults_path;
    if (continuous) {
      fp << " continuous_ms=" << continuous_ms << " snapshots=" << snapshots;
    }
    if (!resume) {
      // A fresh (non-resume) journaled run starts from a clean slate so
      // stale completions cannot mask cells that should re-run.
      for (std::int32_t rep = 0; rep < reps; ++rep) {
        std::remove((journal_dir + "/cell_" + std::to_string(rep) + ".rec")
                        .c_str());
      }
    }
    const harness::SweepJournal journal(journal_dir, fp.str());
    const std::int64_t replayed = harness::RunJournaled(
        runner, journal, reps,
        [&](std::int64_t rep) {
          run_rep(rep);
          RepBlock block = render_block(rep);
          std::string payload = std::string(block.completed ? "1" : "0") +
                                (block.audit_ok ? "1" : "0") + "\n" +
                                block.text;
          blocks[static_cast<std::size_t>(rep)] = std::move(block);
          return payload;
        },
        [&](std::int64_t rep, const std::string& payload) {
          RepBlock block;
          if (payload.size() >= 3) {
            block.completed = payload[0] == '1';
            block.audit_ok = payload[1] == '1';
            block.text = payload.substr(3);
          }
          blocks[static_cast<std::size_t>(rep)] = std::move(block);
        });
    if (!csv && replayed > 0) {
      std::cout << "journal: replayed " << replayed << " of " << reps
                << " repetitions from " << journal_dir << "\n";
    }
  }

  if (!svg_path.empty()) {
    const core::Scenario scenario(config, 0, prefabs[0]);
    std::ostringstream out;
    harness::SvgOptions svg_options;
    svg_options.pcr_m = scenario.pcr();
    harness::WriteSvg(out, scenario.secondary_graph(), &scenario.collection_tree(),
                      scenario.pu_positions(), svg_options);
    if (!WriteArtifactOrComplain(svg_path, out.str())) return 2;
    std::cout << "topology rendered to " << svg_path << "\n";
  }
  bool all_completed = true;
  bool audit_clean = true;
  for (const RepBlock& block : blocks) {
    std::cout << block.text;
    all_completed &= block.completed;
    audit_clean &= block.audit_ok;
  }
  if (!trace_path.empty()) {
    std::ostringstream out;
    span_tracer.WriteAttemptCsv(out);
    if (!WriteArtifactOrComplain(trace_path, out.str())) return 2;
    const obs::AttemptSummary summary = obs::SummarizeAttempts(span_tracer.attempts());
    std::cout << "ADDC trace: " << summary.attempts << " attempts, useful airtime "
              << harness::FormatDouble(summary.useful_airtime_fraction, 3)
              << ", written to " << trace_path << "\n";
  }
  if (!trace_out.empty()) {
    std::ostringstream out;
    span_tracer.WriteChromeTrace(out);
    if (!WriteArtifactOrComplain(trace_out, out.str())) return 2;
    std::cout << "lifecycle trace: " << trace_out << " ("
              << span_tracer.packets().size() << " packets, "
              << span_tracer.attempts().size() << " attempts)\n";
  }
  if (!metrics_out.empty()) {
    obs::MetricsRegistry merged;
    double final_ms = 0.0;
    for (const RepOutcome& outcome : outcomes) {
      merged.Merge(outcome.metrics);
      if (outcome.addc.has_value()) {
        final_ms = std::max(final_ms, outcome.addc->delay_ms);
      }
    }
    if (!harness::WriteMetricsJson(merged, sim::FromMilliseconds(final_ms),
                                   metrics_out, std::cout)) {
      return 2;
    }
  }
  if (flight_recorder.has_value()) {
    std::ostringstream out;
    flight_recorder->WriteDump(out);
    if (!WriteArtifactOrComplain(flight_out, out.str())) return 2;
    std::cout << "flight recorder: " << flight_recorder->size() << " of "
              << flight_recorder->total_recorded()
              << " recorded actions retained -> " << flight_out << "\n";
    const std::vector<std::string>& kind_names = flight_recorder->kind_names();
    const std::vector<sim::KindCounters>& counters = flight_recorder->counters();
    for (std::size_t k = 0; k < counters.size(); ++k) {
      if (counters[k].fires == 0) continue;
      std::cout << "  " << kind_names[k] << ": " << counters[k].fires
                << " fires, "
                << harness::FormatDouble(
                       flight_recorder->fire_wall_seconds(
                           static_cast<std::uint16_t>(k)) * 1e3, 3)
                << " ms wall\n";
    }
  }
  if (audit && !audit_clean) {
    std::cerr << "audit: invariant violations or digest divergence detected\n";
    return 1;
  }
  // A run that hit the horizon is censored, not wrong: its own status.
  return all_completed ? 0 : 3;
}
