#include "mac/packet.h"

namespace crn::mac {

const char* ToString(TxOutcome outcome) {
  switch (outcome) {
    case TxOutcome::kSuccess:
      return "success";
    case TxOutcome::kAbortedPuReturn:
      return "aborted-pu-return";
    case TxOutcome::kSirFailure:
      return "sir-failure";
    case TxOutcome::kReceiverBusy:
      return "receiver-busy";
    case TxOutcome::kCaptureLost:
      return "capture-lost";
  }
  return "unknown";
}

const char* ToString(LifecycleEvent::Kind kind) {
  switch (kind) {
    case LifecycleEvent::Kind::kPacketCreated:
      return "packet-created";
    case LifecycleEvent::Kind::kPacketEnqueued:
      return "packet-enqueued";
    case LifecycleEvent::Kind::kPacketDelivered:
      return "packet-delivered";
    case LifecycleEvent::Kind::kPacketDropped:
      return "packet-dropped";
    case LifecycleEvent::Kind::kContentionStarted:
      return "contention-started";
    case LifecycleEvent::Kind::kFrozen:
      return "frozen";
    case LifecycleEvent::Kind::kResumed:
      return "resumed";
    case LifecycleEvent::Kind::kDeferred:
      return "deferred";
    case LifecycleEvent::Kind::kTxStarted:
      return "tx-started";
    case LifecycleEvent::Kind::kSlotBoundary:
      return "slot-boundary";
  }
  return "unknown";
}

}  // namespace crn::mac
