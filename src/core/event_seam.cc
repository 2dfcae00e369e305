#include "src/core/event_seam.h"

#include "src/core/node.h"

namespace farm {

EventSeam::EventSeam(Simulator& sim, flight::Recorder* ring, NodeStats& stats,
                     metrics::Registry& reg)
    : sim_(sim), ring_(ring), stats_(stats) {
  // Every node binds the same cluster-wide cells (the labels carry no node
  // id), so dumps and bench rows see cluster totals.
  metrics_.BindTo(reg);
}

void EventSeam::Abort(const TxId& tx, flight::AbortReason why) {
  switch (why) {
    case flight::AbortReason::kLockConflict:
    case flight::AbortReason::kNoPlacement:
    case flight::AbortReason::kLogReservation:
      stats_.tx_aborted_lock++;
      break;
    case flight::AbortReason::kValidateConflict:
      stats_.tx_aborted_validate++;
      break;
    case flight::AbortReason::kRecoveryAbort:
      stats_.tx_recovered_abort++;
      break;
    default:  // the kUnresolved* reasons: the outcome is recovery's to decide
      stats_.tx_unresolved++;
      break;
  }
  if (static_cast<int>(why) <= flight::kNumCountedAbortReasons) {
    metrics_.CountAbort(why);
  }
  Emit(flight::EventKind::kAbort, &tx, static_cast<uint8_t>(why));
}

void EventSeam::Emit(flight::EventKind kind, const TxId* tx, uint8_t arg, uint32_t detail,
                     std::optional<SimTime> t) {
  if (ring_ == nullptr) {
    return;
  }
  flight::Record r;
  r.time_ns = t.value_or(sim_.Now());
  r.kind = static_cast<uint8_t>(kind);
  r.arg = arg;
  r.detail = detail;
  if (tx != nullptr) {
    r.tx_config = static_cast<uint32_t>(tx->config);
    r.tx_machine = static_cast<uint16_t>(tx->machine);
    r.tx_thread = tx->thread;
    r.tx_local = tx->local;
    r.flags |= flight::Record::kHasTx;
  }
  ring_->Append(r);
}

}  // namespace farm
