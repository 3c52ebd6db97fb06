// Packet and transmission-event types shared by the MAC and the metric
// observers.
#ifndef CRN_MAC_PACKET_H_
#define CRN_MAC_PACKET_H_

#include <cstdint>

#include "graph/unit_disk_graph.h"
#include "sim/time.h"

namespace crn::mac {

using NodeId = graph::NodeId;

// A data-collection payload. Packets are never aggregated (§III: "without
// any data aggregation"), so identity is just the producing SU plus
// bookkeeping for metrics.
struct Packet {
  NodeId origin = graph::kInvalidNode;
  sim::TimeNs created = 0;
  std::int32_t hops = 0;
  std::int32_t snapshot = 0;  // which snapshot produced it (continuous mode)
};

// Terminal outcome of one SU transmission attempt.
enum class TxOutcome : std::uint8_t {
  kSuccess = 0,
  kAbortedPuReturn,  // spectrum handoff: a PU became active inside the PCR
  kSirFailure,       // physical-model SIR dropped below η_s during reception
  kReceiverBusy,     // receiver was transmitting (half-duplex violation)
  kCaptureLost,      // RS mode: receiver switched to a stronger signal
};
inline constexpr std::int32_t kTxOutcomeCount = 5;

const char* ToString(TxOutcome outcome);

// Observer record emitted when a transmission attempt terminates.
struct TxEvent {
  NodeId transmitter = graph::kInvalidNode;
  NodeId receiver = graph::kInvalidNode;
  sim::TimeNs start = 0;
  sim::TimeNs end = 0;
  TxOutcome outcome = TxOutcome::kSuccess;
  Packet packet;
  double min_sir = 0.0;  // +inf when unopposed
};

// Observer record for the packet/contention lifecycle — one of the MAC's
// two observer channels (collection_mac.h); TxEvent is the other. The
// observability layer (obs::PacketSpanTracer, obs::MacMetricsCollector) and
// the invariant auditor consume it. Together with TxEvent it covers a
// packet's whole life: created → enqueued per hop → contention (backoff,
// freeze, resume, defer) → on the air (kTxStarted) → attempt outcome
// (TxEvent) → delivered or dropped.
struct LifecycleEvent {
  enum class Kind : std::uint8_t {
    kPacketCreated,      // seeded at its origin; value = queue depth after
    kPacketEnqueued,     // arrived at a relay; value = queue depth after
    kPacketDelivered,    // reached the base station; value = hop count
    kPacketDropped,      // lost with a failed node; value = queue depth left
    kContentionStarted,  // backoff drawn (Alg. 1 line 3); value = t_i in ns
    kFrozen,             // countdown paused (busy spectrum); value = remaining ns
    kResumed,            // countdown resumed (free spectrum); value = remaining ns
    kDeferred,           // slot-aware hold until the boundary; value = hold ns
    kTxStarted,          // on the air; node = transmitter, value = receiver
    kSlotBoundary,       // PU re-sample; node = -1, value = active PU count
  };

  Kind kind = Kind::kSlotBoundary;
  NodeId node = graph::kInvalidNode;
  sim::TimeNs time = 0;
  // Valid for the four packet kinds, kContentionStarted and kTxStarted
  // (queue head).
  Packet packet;
  std::int64_t value = 0;  // kind-specific, see above
};

const char* ToString(LifecycleEvent::Kind kind);

}  // namespace crn::mac

#endif  // CRN_MAC_PACKET_H_
