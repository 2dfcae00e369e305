// Fixture for the single-seam rule: the seam file itself is exempt.
#include "src/obs/flight_recorder.h"

void Emit(flight::Recorder* ring_, flight::PhaseMetrics& metrics_, const flight::Record& r) {
  metrics_.RecordPhase(flight::Phase::kLock, 10);
  metrics_.CountAbort(flight::AbortReason::kLockConflict);
  ring_->Append(r);
}
