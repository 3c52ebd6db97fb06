// Packet-lifecycle span tracer — the second half of the observability
// layer and the simulator's one packet-history recorder. Attached to a
// CollectionMac it records, in simulation time, one span per packet
// (created → delivered/dropped, with every relay enqueue in between), every
// transmission attempt as the MAC's own TxEvent, and one span per
// carrier-sense freeze interval. The in-memory records are exact (TimeNs),
// so a packet's delivery delay can be reconstructed to the nanosecond. Two
// exporters render them: the Chrome trace-event JSON (chrome_trace.h) for
// chrome://tracing / Perfetto, and a per-attempt CSV for gnuplot/pandas.
//
// Determinism: records are stored in emission order (packets keyed by a
// sorted map), timestamps are simulation time only, and Digest() folds
// everything through the same FNV-1a scheme as the invariant auditor — two
// runs of one seed produce identical digests.
#ifndef CRN_OBS_SPAN_TRACER_H_
#define CRN_OBS_SPAN_TRACER_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

#include "mac/collection_mac.h"
#include "mac/packet.h"
#include "obs/chrome_trace.h"
#include "sim/time.h"

namespace crn::obs {

class PacketSpanTracer {
 public:
  // One enqueue instant at a relay on the packet's route.
  struct Hop {
    mac::NodeId node = -1;
    sim::TimeNs at = 0;
    std::int64_t queue_depth = 0;
  };

  // Full lifecycle of one packet, identified by (origin, snapshot).
  struct PacketSpan {
    mac::NodeId origin = -1;
    std::int32_t snapshot = 0;
    sim::TimeNs created = -1;
    sim::TimeNs delivered = -1;  // -1 unless it reached the base station
    sim::TimeNs dropped = -1;    // -1 unless lost with a failed node
    std::int32_t hops = 0;       // hop count at delivery
    std::vector<Hop> enqueues;   // relay arrivals, in order

    [[nodiscard]] bool terminal() const { return delivered >= 0 || dropped >= 0; }
    // Exact end-to-end delay in ns; -1 while in flight or dropped.
    [[nodiscard]] sim::TimeNs delivery_delay() const {
      return delivered >= 0 ? delivered - created : -1;
    }
  };

  // One closed carrier-sense freeze interval (backoff countdown paused).
  struct FreezeSpan {
    mac::NodeId node = -1;
    sim::TimeNs begin = 0;
    sim::TimeNs end = 0;
  };

  // Registers lifecycle + tx observers on `mac`; call before the run. The
  // tracer must outlive the run.
  void Attach(mac::CollectionMac& mac);

  // Stable per-packet correlation id: (snapshot << 32) | origin.
  [[nodiscard]] static std::uint64_t PacketId(mac::NodeId origin,
                                              std::int32_t snapshot) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(snapshot)) << 32) |
           static_cast<std::uint32_t>(origin);
  }

  [[nodiscard]] const std::map<std::uint64_t, PacketSpan>& packets() const {
    return packets_;
  }
  // Every transmission attempt (any outcome), in termination order.
  [[nodiscard]] const std::vector<mac::TxEvent>& attempts() const {
    return attempts_;
  }
  [[nodiscard]] const std::vector<FreezeSpan>& freezes() const { return freezes_; }

  // Order-sensitive FNV-1a digest over every recorded span. Simulation-time
  // only — equal digests certify identical trace streams.
  [[nodiscard]] std::uint64_t Digest() const;

  // Chrome trace-event rendering: an async b/e span per packet (pid 1, id =
  // PacketId), an "X" slice per attempt and per freeze on the transmitter's
  // tid, an instant per relay enqueue. ts is sim-time microseconds.
  [[nodiscard]] std::vector<ChromeTraceEvent> ToChromeEvents() const;
  void WriteChromeTrace(std::ostream& out) const;

  // One row per transmission attempt:
  // start_ms,end_ms,transmitter,receiver,outcome,origin,snapshot,hops,min_sir
  // (min_sir prints "inf" for unopposed receptions).
  void WriteAttemptCsv(std::ostream& out) const;

 private:
  void OnLifecycle(const mac::LifecycleEvent& event);

  std::map<std::uint64_t, PacketSpan> packets_;
  std::vector<mac::TxEvent> attempts_;
  std::vector<FreezeSpan> freezes_;
  // Per-node open freeze interval start (-1 = not frozen); grown lazily.
  std::vector<sim::TimeNs> freeze_begin_;
};

// Aggregate view of an attempt history — PacketSpanTracer::attempts() or a
// synthetic trace.
struct AttemptSummary {
  std::int64_t attempts = 0;
  std::int64_t per_outcome[mac::kTxOutcomeCount] = {};
  // per_outcome / attempts; all zeros when the trace is empty.
  double per_outcome_fraction[mac::kTxOutcomeCount] = {};
  // Valid whenever attempts > 0 — including the degenerate trace where
  // every attempt shares one timestamp (first_start == last_end).
  sim::TimeNs first_start = 0;
  sim::TimeNs last_end = 0;
  // Airtime efficiency: fraction of transmission time that carried a
  // packet which ultimately succeeded. 0 (never NaN) when the trace is
  // empty or every attempt has zero duration.
  double useful_airtime_fraction = 0.0;
};
[[nodiscard]] AttemptSummary SummarizeAttempts(
    const std::vector<mac::TxEvent>& attempts);

}  // namespace crn::obs

#endif  // CRN_OBS_SPAN_TRACER_H_
