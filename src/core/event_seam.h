// The core protocol's one observation seam.
//
// Every commit-phase boundary, transaction abort, recovery step and
// participant-side protocol event in src/core is a single call on its
// node's EventSeam, which writes one flight record. The record fans out
// from flight::Recorder::Append to the tracer (phase spans and recovery
// instants, src/obs/trace.h) and to the fault hook (one injectable point per
// record, src/obs/fault_hook.h); the seam itself adds the metric the record
// implies: a tx_phase_ns sample for a phase end, and for an abort the
// tx_abort_reason counter plus the NodeStats outcome counter of its reason.
// farmlint's `single-seam` rule keeps every other src/core file from
// writing records, phase samples or abort counts of its own.
#ifndef SRC_CORE_EVENT_SEAM_H_
#define SRC_CORE_EVENT_SEAM_H_

#include <cstdint>
#include <optional>

#include "src/core/types.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/simulator.h"

namespace farm {

struct NodeStats;

class EventSeam {
 public:
  // `ring` may be null (nothing is recorded); `stats` must outlive the seam.
  EventSeam(Simulator& sim, flight::Recorder* ring, NodeStats& stats,
            metrics::Registry& reg);

  // Phase `p` of `tx` began at `at` (default: now). Returns the begin time,
  // which the matching PhaseEnd takes.
  SimTime PhaseBegin(const TxId& tx, flight::Phase p, std::optional<SimTime> at = std::nullopt) {
    SimTime t = at.value_or(sim_.Now());
    Emit(flight::EventKind::kPhaseBegin, &tx, static_cast<uint8_t>(p), 0, t);
    return t;
  }
  // Phase `p` of `tx` completed; samples now - begin into tx_phase_ns.
  void PhaseEnd(const TxId& tx, flight::Phase p, SimTime begin) {
    metrics_.RecordPhase(p, sim_.Now() - begin);
    Emit(flight::EventKind::kPhaseEnd, &tx, static_cast<uint8_t>(p));
  }
  // The commit attempt of `tx` ended without committing: counts the reason
  // in tx_abort_reason (counted reasons only) and in the NodeStats outcome
  // counter it maps to.
  void Abort(const TxId& tx, flight::AbortReason why);
  // A recovery step, with the transaction it concerns where there is one.
  void Recovery(flight::RecoveryStep step, uint32_t detail) {
    Emit(flight::EventKind::kRecoveryStep, nullptr, static_cast<uint8_t>(step), detail);
  }
  void Recovery(const TxId& tx, flight::RecoveryStep step, uint32_t detail = 0) {
    Emit(flight::EventKind::kRecoveryStep, &tx, static_cast<uint8_t>(step), detail);
  }
  // A new configuration was installed: the reconfig record, then the
  // new-config recovery step.
  void NewConfig(ConfigId config) {
    Emit(flight::EventKind::kReconfig, nullptr, 0, static_cast<uint32_t>(config));
    Recovery(flight::RecoveryStep::kNewConfig, static_cast<uint32_t>(config));
  }
  // Participant-side events (lock-acquire/reject, validate-fail, log-record
  // arrivals), which imply no metric.
  void Participant(flight::EventKind kind, const TxId& tx, uint8_t arg, uint32_t detail) {
    Emit(kind, &tx, arg, detail);
  }

 private:
  // Writes the event's one record, stamped `t` (default: now).
  void Emit(flight::EventKind kind, const TxId* tx, uint8_t arg, uint32_t detail = 0,
            std::optional<SimTime> t = std::nullopt);

  Simulator& sim_;
  flight::Recorder* ring_;
  NodeStats& stats_;
  flight::PhaseMetrics metrics_;
};

}  // namespace farm

#endif  // SRC_CORE_EVENT_SEAM_H_
