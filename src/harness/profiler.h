// Wall-clock run profiler for the experiment harness — the third leg of
// the observability layer (DESIGN.md §"Observability").
//
// RunProfiler collects named wall-clock spans (phase + label + begin/end
// seconds since the profiler's epoch + worker id) from the sweep engine,
// ParallelRunner, and bench mainlines. The aggregate per-phase summary goes
// into BENCH_<name>.json (schema v2 "profile" section, json_writer.h); the
// raw spans render as a Chrome trace via obs/chrome_trace.h (--trace-out).
//
// Wall-clock readings live only here, in the harness sink layer, and are
// never folded into any digest or simulation-visible state — the registry /
// trace-digest determinism contract is untouched. RecordSpan is
// thread-safe; with no profiler attached (null pointer everywhere) the
// hooks cost one branch.
#ifndef CRN_HARNESS_PROFILER_H_
#define CRN_HARNESS_PROFILER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness/parallel_runner.h"
#include "obs/chrome_trace.h"
#include "sim/flight_recorder.h"

namespace crn::harness {

class RunProfiler {
 public:
  struct Span {
    std::string phase;   // coarse stage, e.g. "cells", "reduce", "render"
    std::string label;   // instance, e.g. "point=40 rep=2 algo=addc"
    double begin_s = 0;  // seconds since the profiler's construction
    double end_s = 0;
    std::int32_t worker = 0;  // work-stealing worker index; 0 = caller thread
  };

  // Per-phase aggregate, sorted by phase name for deterministic layout
  // (the timing values themselves are wall-clock, never digested).
  struct PhaseStats {
    std::string phase;
    std::int64_t count = 0;
    double total_s = 0;
    double min_s = 0;
    double max_s = 0;
  };

  RunProfiler() = default;
  RunProfiler(const RunProfiler&) = delete;
  RunProfiler& operator=(const RunProfiler&) = delete;

  // Seconds since construction (the epoch all spans share).
  [[nodiscard]] double Now() const { return timer_.Seconds(); }

  // Thread-safe append of a closed span.
  void RecordSpan(std::string phase, std::string label, double begin_s,
                  double end_s, std::int32_t worker);

  // RAII span bound to the calling thread's pool worker index.
  class Scope {
   public:
    // `profiler` may be null — the scope then does nothing.
    Scope(RunProfiler* profiler, std::string phase, std::string label = "");
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RunProfiler* profiler_;
    std::string phase_;
    std::string label_;
    double begin_s_ = 0;
  };

  [[nodiscard]] std::vector<Span> spans() const;           // snapshot copy
  [[nodiscard]] std::vector<PhaseStats> PhaseSummary() const;

  // Chrome trace rendering: one "X" slice per span, tid = worker index,
  // plus thread-name metadata. ts is wall-clock microseconds since the
  // profiler epoch.
  [[nodiscard]] std::vector<obs::ChromeTraceEvent> ToChromeEvents() const;
  void WriteChromeTrace(std::ostream& out) const;

 private:
  WallTimer timer_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- flight-recorder integration (sim/flight_recorder.h) -----------------
// The sim layer cannot read wall clocks, so the harness hands the recorder
// the profiler's epoch clock as its probe. Install before the run.
void AttachFlightRecorderProbe(RunProfiler& profiler,
                               sim::FlightRecorder& recorder);

}  // namespace crn::harness

#endif  // CRN_HARNESS_PROFILER_H_
