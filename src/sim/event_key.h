// Shared (time, class, sequence) event ordering.
//
// Every queue in the repo that orders timestamped events — the simulator's
// calendar queue (sim/simulator.h), its reference oracle in
// tests/sim/scheduler_fuzz_test.cc, and the fault-plan timeline compiler
// (faults/fault_plan.cc) — compares through this one key, so same-instant
// tie-breaking has exactly one definition.
#ifndef CRN_SIM_EVENT_KEY_H_
#define CRN_SIM_EVENT_KEY_H_

#include <cstdint>

#include "sim/time.h"

namespace crn::sim {

// Total order: earlier time first, then lower klass, then lower sequence
// number (schedule order). `klass` is a plain integer so any small ordinal
// fits — sim::EventPriority in the scheduler, faults::FaultKind in the
// timeline compiler — without this header depending on either enum.
struct EventKey {
  TimeNs time = 0;
  std::int32_t klass = 0;
  std::uint64_t seq = 0;
};

[[nodiscard]] constexpr bool operator<(const EventKey& a, const EventKey& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.klass != b.klass) return a.klass < b.klass;
  return a.seq < b.seq;
}

[[nodiscard]] constexpr bool operator>(const EventKey& a, const EventKey& b) {
  return b < a;
}

}  // namespace crn::sim

#endif  // CRN_SIM_EVENT_KEY_H_
