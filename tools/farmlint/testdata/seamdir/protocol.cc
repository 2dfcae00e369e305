// Fixture for the single-seam rule: outside the seam file, protocol code
// may not write flight records or the metrics a record implies.
#include "src/obs/flight_recorder.h"

struct Cluster {
  flight::Recorder* flight_recorder(int m);
  std::vector<std::unique_ptr<flight::Recorder>> rings_;
};

struct Sender {
  void Append(int bytes);
};

void Bad(flight::Recorder* ring, Cluster* cluster_, flight::PhaseMetrics& pm,
         const flight::Record& r) {
  pm.RecordPhase(flight::Phase::kLock, 10);               // hit: phase sample
  pm.CountAbort(flight::AbortReason::kLockConflict);      // hit: abort count
  ring->Append(r);                                        // hit: record
  cluster_->flight_recorder(0)->Append(r);                // hit: record via accessor
  cluster_->rings_[0]->Append(r);                         // hit: record via member
}

void Good(Sender* txlog, Sender& w, flight::Recorder* ring) {
  txlog->Append(64);  // not a recorder
  w.Append(8);        // not a recorder
  (void)ring->appended();
}
