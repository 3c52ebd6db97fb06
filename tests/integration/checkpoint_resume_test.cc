// The checkpoint/restore bit-identity contract at full-stack scale
// (DESIGN.md §14): a collection run checkpointed at event k and resumed
// from the blob must finish with the same trace digest, the same metrics
// digest, and the same audit report as the uninterrupted run — across
// seeds, across checkpoint points, with and without fault injection and
// the flight recorder attached. This is the library-level half of the
// recovery story; tests/integration/crash_recovery_test.cc adds the
// SIGKILL-under-fire half on top of the same machinery
// (checkpoint_harness.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/invariant_auditor.h"
#include "core/scenario.h"
#include "obs/metrics.h"
#include "sim/flight_recorder.h"

#include "checkpoint_harness.h"

namespace crn::core {
namespace {

TEST(CheckpointResumeTest, TakingCheckpointsDoesNotPerturbTheRun) {
  const Captured pure = RunVariant(41, {}, 0, nullptr);
  const Captured checkpointed = RunVariant(41, {}, 2000, nullptr);
  EXPECT_GE(checkpointed.checkpoints.size(), 2U);
  ExpectBitIdentical(pure, checkpointed);
}

TEST(CheckpointResumeTest, ResumeIsBitIdenticalAcrossSeedsAndPoints) {
  for (const std::uint64_t seed : {41ULL, 42ULL, 43ULL}) {
    const Captured base = RunVariant(seed, {}, 2000, nullptr);
    ASSERT_GE(base.checkpoints.size(), 2U) << "seed " << seed;
    // An early and a mid-run point: pending one-shots and queue content
    // differ materially between the two.
    for (const std::size_t point : {std::size_t{0}, base.checkpoints.size() / 2}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " resumed from event "
                   << base.checkpoints[point].first);
      const Captured resumed =
          RunVariant(seed, {}, 0, &base.checkpoints[point].second);
      ExpectBitIdentical(base, resumed);
    }
  }
}

TEST(CheckpointResumeTest, ResumeUnderFaultChurnIsBitIdentical) {
  const Variant faulted{/*faults=*/true, /*flight=*/false};
  for (const std::uint64_t seed : {41ULL, 42ULL, 43ULL}) {
    const Captured base = RunVariant(seed, faulted, 2000, nullptr);
    ASSERT_GE(base.checkpoints.size(), 2U) << "seed " << seed;
    EXPECT_GT(base.fault_report.injected_total(), 0) << "seed " << seed;
    for (const std::size_t point : {std::size_t{0}, base.checkpoints.size() / 2}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " resumed from event "
                   << base.checkpoints[point].first);
      const Captured resumed =
          RunVariant(seed, faulted, 0, &base.checkpoints[point].second);
      ExpectBitIdentical(base, resumed);
    }
  }
}

TEST(CheckpointResumeTest, ResumeWithFlightRecorderIsBitIdentical) {
  // Faults + recorder together: the per-kind scheduler counters feed the
  // metrics digest, so a recorder restore gap would surface here.
  const Variant instrumented{/*faults=*/true, /*flight=*/true};
  const Captured base = RunVariant(41, instrumented, 2000, nullptr);
  ASSERT_GE(base.checkpoints.size(), 2U);
  for (const std::size_t point : {std::size_t{0}, base.checkpoints.size() / 2}) {
    SCOPED_TRACE(::testing::Message() << "resumed from event "
                                      << base.checkpoints[point].first);
    const Captured resumed =
        RunVariant(41, instrumented, 0, &base.checkpoints[point].second);
    ExpectBitIdentical(base, resumed);
  }
}

// Finds an event count k at which the run sits mid-slot with nothing on
// the air since the slot's PU re-sample — so the MAC has not yet synced the
// interference field for this slot — and a transmission (and with it the
// first SIR evaluation) follows later in the same slot. Replays the flight
// recorder's ring: tx_end arms/fires/disarms count transmissions on air.
std::uint64_t FindUnsyncedMidSlotEvent(std::uint64_t seed) {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.1);
  config.seed = seed;
  sim::FlightRecorder recorder(1U << 18U);
  AuditReport report;
  obs::MetricsRegistry metrics;
  RunOptions options;
  options.audit_report = &report;
  options.metrics = &metrics;
  options.flight_recorder = &recorder;
  RunAddc(Scenario(config, 0), options);
  CRN_CHECK(recorder.size() == recorder.total_recorded()) << "ring wrapped";

  const auto kind_of = [&](std::string_view name) {
    const auto& names = recorder.kind_names();
    const auto it = std::find(names.begin(), names.end(), name);
    CRN_CHECK(it != names.end()) << name;
    return static_cast<std::uint16_t>(it - names.begin());
  };
  const std::uint16_t slot_kind = kind_of("mac.slot_boundary");
  const std::uint16_t tx_end_kind = kind_of("mac.tx_end");
  constexpr std::uint64_t kWarmupEvents = 2000;
  std::uint64_t events = 0;
  std::int64_t on_air = 0;
  bool slot_quiet = false;  // nothing on air since this slot's boundary
  std::uint64_t candidate = 0;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const sim::FlightRecord& record = recorder.At(i);
    if (record.action == sim::SchedAction::kFire) {
      // Between events `events` and `events + 1`: a quiet slot that the
      // boundary event did not just open is a candidate.
      if (slot_quiet && candidate == 0 && events >= kWarmupEvents &&
          record.kind != slot_kind) {
        candidate = events;
      }
      ++events;
      if (record.kind == slot_kind) {
        candidate = 0;
        slot_quiet = false;
      }
    }
    if (record.kind == tx_end_kind) {
      if (record.action == sim::SchedAction::kArm) {
        if (candidate != 0) return candidate;  // first transmission of the slot
        ++on_air;
      } else if (record.action != sim::SchedAction::kReschedule) {
        --on_air;
      }
    }
    // The boundary's own callback (aborts included) has run once the next
    // fire is reached; decide quietness from the on-air count after it.
    if (record.action == sim::SchedAction::kFire && record.kind == slot_kind) {
      slot_quiet = true;
    }
    if (on_air > 0) slot_quiet = false;
  }
  ADD_FAILURE() << "no mid-slot checkpoint point before a first SIR evaluation";
  return 0;
}

TEST(CheckpointResumeTest, ResumeBeforeFirstSirEvaluationOfSlotIsBitIdentical) {
  // The field's per-slot PU sync is not checkpointed: a restore marks the
  // slot unsynced and relies on the sync being idempotent. Checkpoint at a
  // point where this slot's sync has not happened yet, and resume.
  const Variant instrumented{/*faults=*/false, /*flight=*/true};
  for (const std::uint64_t seed : {41ULL, 42ULL}) {
    const std::uint64_t point = FindUnsyncedMidSlotEvent(seed);
    ASSERT_GT(point, 0U) << "seed " << seed;
    const Captured base =
        RunVariant(seed, instrumented, static_cast<std::int64_t>(point), nullptr);
    ASSERT_FALSE(base.checkpoints.empty()) << "seed " << seed;
    ASSERT_EQ(base.checkpoints[0].first, point) << "seed " << seed;
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " resumed from event "
                                      << point);
    const Captured resumed =
        RunVariant(seed, instrumented, 0, &base.checkpoints[0].second);
    ExpectBitIdentical(base, resumed);
  }
}

TEST(CheckpointResumeTest, ResumedRunCanItselfCheckpoint) {
  // A resumed run that keeps checkpointing — the crash soak's steady state:
  // kill, resume, kill again. Its later checkpoints must be usable too.
  const Captured base = RunVariant(42, {}, 2000, nullptr);
  ASSERT_GE(base.checkpoints.size(), 2U);
  const Captured resumed =
      RunVariant(42, {}, 2000, &base.checkpoints[0].second);
  ExpectBitIdentical(base, resumed);
  ASSERT_FALSE(resumed.checkpoints.empty());
  const Captured resumed_again =
      RunVariant(42, {}, 0, &resumed.checkpoints.back().second);
  ExpectBitIdentical(base, resumed_again);
}

TEST(CheckpointResumeTest, RestoreRejectsMismatchedScenario) {
  const Captured base = RunVariant(41, {}, 2000, nullptr);
  ASSERT_FALSE(base.checkpoints.empty());
  EXPECT_THROW(RunVariant(42, {}, 0, &base.checkpoints[0].second),
               ContractViolation);
}

TEST(CheckpointResumeTest, RestoreRejectsMismatchedAttachments) {
  const Captured base = RunVariant(41, {}, 2000, nullptr);
  ASSERT_FALSE(base.checkpoints.empty());
  const Variant faulted{/*faults=*/true, /*flight=*/false};
  EXPECT_THROW(RunVariant(41, faulted, 0, &base.checkpoints[0].second),
               ContractViolation);
}

}  // namespace
}  // namespace crn::core
