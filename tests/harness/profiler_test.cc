// Wall-clock run profiler tests: null-safe RAII scopes, span recording from
// pool workers, deterministic phase summaries, and the Chrome trace export.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/profiler.h"

namespace crn::harness {
namespace {

TEST(RunProfilerTest, NullProfilerScopeIsANoOp) {
  // The zero-cost contract: every hook site passes a possibly-null pointer.
  const RunProfiler::Scope outer(nullptr, "cells", "point=0");
  const RunProfiler::Scope inner(nullptr, "reduce");
  SUCCEED();
}

TEST(RunProfilerTest, ScopeRecordsClosedSpan) {
  RunProfiler profiler;
  {
    const RunProfiler::Scope scope(&profiler, "cells", "point=40 rep=2");
  }
  const auto spans = profiler.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase, "cells");
  EXPECT_EQ(spans[0].label, "point=40 rep=2");
  EXPECT_LE(spans[0].begin_s, spans[0].end_s);
  EXPECT_EQ(spans[0].worker, 0);  // caller thread, not a pool worker
}

TEST(RunProfilerTest, PhaseSummaryAggregatesSortedByPhase) {
  RunProfiler profiler;
  profiler.RecordSpan("reduce", "", 0.0, 0.25, 0);
  profiler.RecordSpan("cells", "a", 0.0, 1.0, 1);
  profiler.RecordSpan("cells", "b", 1.0, 3.0, 2);
  const auto summary = profiler.PhaseSummary();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].phase, "cells");
  EXPECT_EQ(summary[0].count, 2);
  EXPECT_DOUBLE_EQ(summary[0].total_s, 3.0);
  EXPECT_DOUBLE_EQ(summary[0].min_s, 1.0);
  EXPECT_DOUBLE_EQ(summary[0].max_s, 2.0);
  EXPECT_EQ(summary[1].phase, "reduce");
  EXPECT_EQ(summary[1].count, 1);
  EXPECT_DOUBLE_EQ(summary[1].total_s, 0.25);
}

TEST(RunProfilerTest, RunnerProfilesEveryCellOnItsWorker) {
  RunProfiler profiler;
  const ParallelRunner runner(2);
  runner.ForEachIndex(8, [](std::int64_t) {}, &profiler, "cells");
  const auto spans = profiler.spans();
  ASSERT_EQ(spans.size(), 8u);
  for (const RunProfiler::Span& span : spans) {
    EXPECT_EQ(span.phase, "cells");
    EXPECT_EQ(span.label.rfind("cells[", 0), 0u);
    EXPECT_GE(span.worker, 1);  // pool workers are 1-based; 0 = main thread
    EXPECT_LE(span.worker, 2);
    EXPECT_LE(span.begin_s, span.end_s);
  }
}

TEST(RunProfilerTest, SerialRunnerProfilesOnTheCallerThread) {
  RunProfiler profiler;
  const ParallelRunner runner(1);
  runner.ForEachIndex(3, [](std::int64_t) {}, &profiler, "cells");
  const auto spans = profiler.spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const RunProfiler::Span& span : spans) EXPECT_EQ(span.worker, 0);
}

TEST(RunProfilerTest, ChromeTraceExportUsesProfilerTrack) {
  RunProfiler profiler;
  profiler.RecordSpan("cells", "point=40", 0.001, 0.002, 1);
  const auto events = profiler.ToChromeEvents();
  bool saw_slice = false;
  bool saw_thread_name = false;
  for (const obs::ChromeTraceEvent& event : events) {
    if (event.phase == obs::ChromeTraceEvent::Phase::kComplete) {
      saw_slice = true;
      EXPECT_EQ(event.name, "point=40");  // label wins; phase is the category
      EXPECT_EQ(event.category, "cells");
      EXPECT_EQ(event.pid, 2);  // profiler track, distinct from sim-time pid 1
      EXPECT_EQ(event.tid, 1);
      EXPECT_DOUBLE_EQ(event.ts_us, 1000.0);  // 0.001 s -> 1000 us
      EXPECT_DOUBLE_EQ(event.dur_us, 1000.0);
    }
    if (event.phase == obs::ChromeTraceEvent::Phase::kMetadata) {
      saw_thread_name = true;
    }
  }
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_thread_name);

  std::ostringstream out;
  profiler.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(RunProfilerTest, FlightRecorderProbeReadsTheProfilerClock) {
  // The harness is the only layer allowed to hand the recorder a wall
  // clock; the recorder then attributes per-kind fire wall time, which
  // addc_sim --flight-recorder-out prints per kind.
  sim::FlightRecorder recorder(8);
  RunProfiler profiler;
  EXPECT_FALSE(recorder.has_wall_probe());
  AttachFlightRecorderProbe(profiler, recorder);
  ASSERT_TRUE(recorder.has_wall_probe());
  const double before = profiler.Now();
  EXPECT_GE(recorder.WallNow(), before);
  recorder.AddFireWall(1, 0.5);
  EXPECT_DOUBLE_EQ(recorder.fire_wall_seconds(1), 0.5);
}

}  // namespace
}  // namespace crn::harness
