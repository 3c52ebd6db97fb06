// End-to-end observability contract on core::RunAddc: attaching sinks never
// changes a run (zero-cost contract), the auditor's violation counters land
// in the registry with matching totals, and the MAC collectors agree with
// the MAC's own aggregate statistics.
#include <gtest/gtest.h>

#include <sstream>

#include "core/collection.h"
#include "core/scenario.h"
#include "mac/packet.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "sim/flight_recorder.h"

namespace crn::core {
namespace {

ScenarioConfig TinyConfig() {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.05);
  config.seed = 11;
  return config;
}

TEST(ObsCollectionTest, AttachingSinksIsObservationOnly) {
  const Scenario scenario(TinyConfig(), 0);

  AuditReport bare_report;
  RunOptions bare;
  bare.audit_report = &bare_report;
  const CollectionResult bare_result = RunAddc(scenario, bare);

  obs::MetricsRegistry metrics;
  obs::PacketSpanTracer spans;
  AuditReport observed_report;
  RunOptions observed;
  observed.audit_report = &observed_report;
  observed.metrics = &metrics;
  observed.spans = &spans;
  const CollectionResult observed_result = RunAddc(scenario, observed);

  // The audit trace digest hashes every transmission: equal digests certify
  // the sinks did not perturb the simulation in any way.
  EXPECT_NE(bare_report.trace_digest, 0u);
  EXPECT_EQ(bare_report.trace_digest, observed_report.trace_digest);
  EXPECT_EQ(bare_result.delay_ms, observed_result.delay_ms);
  EXPECT_EQ(bare_result.mac.attempts, observed_result.mac.attempts);
  EXPECT_GT(metrics.instrument_count(), 0u);
  EXPECT_FALSE(spans.packets().empty());
}

TEST(ObsCollectionTest, ObserversLeaveSirRunAndFieldSyncUnchanged) {
  // The MAC syncs the interference field with the slot's PU set lazily, on
  // first SIR/audit need; no observer may move that point. Registry, span
  // tracer and flight recorder attached together must leave the trace
  // digest, the SIR work counts (exact functions of when the field syncs)
  // and the result exactly as they are without them.
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.1);  // n = 200
  config.seed = 41;
  const Scenario scenario(config, 0);

  AuditReport bare_report;
  RunOptions bare;
  bare.audit_report = &bare_report;
  const CollectionResult bare_result = RunAddc(scenario, bare);

  obs::MetricsRegistry counted;
  AuditReport counted_report;
  RunOptions metrics_only;
  metrics_only.audit_report = &counted_report;
  metrics_only.metrics = &counted;
  RunAddc(scenario, metrics_only);

  obs::MetricsRegistry metrics;
  obs::PacketSpanTracer spans;
  sim::FlightRecorder recorder;
  AuditReport observed_report;
  RunOptions observed;
  observed.audit_report = &observed_report;
  observed.metrics = &metrics;
  observed.spans = &spans;
  observed.flight_recorder = &recorder;
  const CollectionResult observed_result = RunAddc(scenario, observed);

  ASSERT_TRUE(bare_result.completed);
  EXPECT_NE(bare_report.trace_digest, 0u);
  EXPECT_EQ(bare_report.trace_digest, counted_report.trace_digest);
  EXPECT_EQ(bare_report.trace_digest, observed_report.trace_digest);
  EXPECT_EQ(bare_result.delay_ms, observed_result.delay_ms);
  EXPECT_EQ(bare_result.mac.attempts, observed_result.mac.attempts);
  const obs::Labels engine{{"engine", "cached"}};
  EXPECT_GT(metrics.GetCounter("perf.sir_evaluations", engine).value(), 0);
  for (const char* name :
       {"perf.sir_evaluations", "perf.sir_terms_evaluated", "perf.reeval_skipped",
        "perf.pu_partials_reused", "perf.su_resumes", "perf.bound_skips"}) {
    EXPECT_EQ(counted.GetCounter(name, engine).value(),
              metrics.GetCounter(name, engine).value())
        << name;
  }
  EXPECT_GT(recorder.total_recorded(), 0U);
  EXPECT_FALSE(spans.packets().empty());
}

TEST(ObsCollectionTest, AuditCountersMatchFinalizedReport) {
  const Scenario scenario(TinyConfig(), 0);
  obs::MetricsRegistry metrics;
  AuditReport report;
  RunOptions options;
  options.audit_report = &report;
  options.metrics = &metrics;
  RunAddc(scenario, options);

  const auto counter = [&](const char* invariant) {
    return metrics.GetCounter("audit.violations_total", {{"invariant", invariant}})
        .value();
  };
  EXPECT_EQ(counter("event-time"), report.time_violations);
  EXPECT_EQ(counter("separation"), report.separation_violations);
  EXPECT_EQ(counter("su-sir"), report.su_sir_violations);
  EXPECT_EQ(counter("pu-protection"), report.pu_protection_violations);
  EXPECT_EQ(counter("routing"), report.routing_violations);
  EXPECT_EQ(counter("event-time") + counter("separation") + counter("su-sir") +
                counter("pu-protection") + counter("routing"),
            report.total_violations());
}

TEST(ObsCollectionTest, MacMetricsAgreeWithMacStats) {
  const Scenario scenario(TinyConfig(), 0);
  obs::MetricsRegistry metrics;
  obs::PacketSpanTracer spans;
  RunOptions options;
  options.metrics = &metrics;
  options.spans = &spans;
  const CollectionResult result = RunAddc(scenario, options);
  ASSERT_TRUE(result.completed);

  // num_sus excludes the base station, so every SU produces one packet.
  const std::int64_t produced = scenario.config().num_sus;
  EXPECT_EQ(metrics.GetCounter("mac.packets_created_total").value(), produced);
  EXPECT_EQ(metrics.GetCounter("mac.packets_delivered_total").value(),
            result.mac.delivered);
  EXPECT_EQ(metrics.GetCounter("mac.packets_dropped_total").value(), 0);

  // Per-outcome attempt counters fold back to the MAC's aggregate.
  std::int64_t attempts = 0;
  for (std::int32_t i = 0; i < mac::kTxOutcomeCount; ++i) {
    attempts += metrics
                    .GetCounter("mac.tx_attempts_total",
                                {{"outcome", ToString(static_cast<mac::TxOutcome>(i))}})
                    .value();
  }
  EXPECT_EQ(attempts, result.mac.attempts);

  // The delivery-delay histogram and the span tracer see the same packets.
  EXPECT_EQ(metrics.GetHistogram("mac.delivery_delay_ns").count(), produced);
  EXPECT_EQ(static_cast<std::int64_t>(spans.packets().size()), produced);
  sim::TimeNs histogram_sum = 0;
  for (const auto& [id, span] : spans.packets()) {
    histogram_sum += span.delivery_delay();
  }
  EXPECT_EQ(metrics.GetHistogram("mac.delivery_delay_ns").sum(), histogram_sum);
}

TEST(ObsCollectionTest, AttemptCsvMatchesResultRowWithoutFairnessWait) {
  // The CSV trace comes from the same RunAddc run as the result row, so a
  // scenario flag (here the Algorithm 1 line-12 wait) reaches both: the
  // recorded attempts, the MAC's own count and the CSV rows all agree.
  ScenarioConfig config = TinyConfig();
  config.fairness_wait = false;
  const Scenario scenario(config, 0);
  obs::PacketSpanTracer spans;
  RunOptions options;
  options.spans = &spans;
  const CollectionResult result = RunAddc(scenario, options);
  ASSERT_TRUE(result.completed);

  std::ostringstream csv;
  spans.WriteAttemptCsv(csv);
  std::int64_t lines = 0;
  for (char c : csv.str()) {
    if (c == '\n') ++lines;
  }
  const std::int64_t data_rows = lines - 1;  // minus the header
  EXPECT_GT(result.mac.attempts, 0);
  EXPECT_EQ(static_cast<std::int64_t>(spans.attempts().size()), result.mac.attempts);
  EXPECT_EQ(data_rows, result.mac.attempts);
}

}  // namespace
}  // namespace crn::core
