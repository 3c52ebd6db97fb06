// Deterministic fan-out of independent experiment cells.
//
// Every (sweep point × repetition × algorithm) cell of an experiment is an
// independent simulation: each one builds (or shares, via the scenario-
// prefab cache) its own Scenario and derives all randomness from
// (config.seed, repetition), never from shared state. The runner therefore
// only has to execute cells and let the caller reduce the per-index results
// in a fixed order — the output is bit-identical at every jobs value, which
// tests/harness/parallel_sweep_test.cc pins against the inline (jobs = 1)
// engine via the auditor's trace digests. The parallel engine is the
// work-stealing executor (work_stealing.h).
#ifndef CRN_HARNESS_PARALLEL_RUNNER_H_
#define CRN_HARNESS_PARALLEL_RUNNER_H_

#include <chrono>  // crn-lint-ok: harness wall-time only, never simulation state
#include <cstdint>
#include <functional>
#include <string>

#include "harness/work_stealing.h"

namespace crn::harness {

class RunProfiler;  // profiler.h (which includes this header for WallTimer)

// Maps a jobs request to a worker count: values >= 1 are taken literally,
// 0 (and negatives) mean "auto" — the hardware concurrency, floored at 1.
std::int32_t ResolveJobs(std::int32_t requested);

class ParallelRunner {
 public:
  // `jobs` is taken through ResolveJobs(); a resolved value of 1 runs every
  // cell inline on the calling thread (the serial engine — no pool, no
  // synchronization). `grain` follows ResolveGrain() (work_stealing.h):
  // >= 1 cells per chunk literally, 0 = auto.
  explicit ParallelRunner(std::int32_t jobs, std::int64_t grain = 0);

  [[nodiscard]] std::int32_t jobs() const { return jobs_; }
  [[nodiscard]] std::int64_t grain() const { return grain_; }

  // Runs fn(0) .. fn(count - 1), all indices exactly once. Parallel
  // execution order is unspecified; callers must write results only to
  // their own index. If cells throw, the lowest-index exception is
  // rethrown after every cell has finished.
  //
  // When `profiler` is non-null every cell is recorded as one wall-clock
  // span "<phase>[i]" under `phase`, tagged with the worker that ran it.
  // Profiling is observation-only: it never changes scheduling, execution
  // order, or any result, and a null profiler costs one branch per cell.
  //
  // Returns scheduling diagnostics (never digested: steals depend on OS
  // scheduling).
  WorkStealingStats ForEachIndex(std::int64_t count,
                                 const std::function<void(std::int64_t)>& fn,
                                 RunProfiler* profiler = nullptr,
                                 const std::string& phase = "cells") const;

 private:
  std::int32_t jobs_;
  std::int64_t grain_;
};

// Wall-clock stopwatch for experiment timing (bench JSON, speedup
// reporting). Quarantined here so simulation code keeps depending on
// sim::TimeNs only — the crn_analyze wall-clock rule still guards src/.
class WallTimer {
 public:
  WallTimer()
      : start_(std::chrono::steady_clock::now()) {}  // crn-lint-ok: harness timing

  [[nodiscard]] double Seconds() const {
    const auto now = std::chrono::steady_clock::now();  // crn-lint-ok: harness timing
    return std::chrono::duration<double>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;  // crn-lint-ok: harness timing
};

}  // namespace crn::harness

#endif  // CRN_HARNESS_PARALLEL_RUNNER_H_
